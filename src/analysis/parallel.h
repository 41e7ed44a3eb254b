/**
 * @file
 * Parallel index loop for parameter sweeps: simulations are
 * independent, so the figure harnesses fan each configuration out
 * across hardware threads.
 *
 * parallelFor dispatches onto the process-wide work-stealing
 * Executor (common/executor.h): runner tasks share an atomic index
 * counter, the calling thread runs one runner inline, and nested
 * parallelFor calls compose through the executor's task groups
 * instead of oversubscribing the machine with fresh threads.
 *
 * It is exception-safe: the first exception thrown by `fn(i)`
 * stops the dispatch of new indices, every in-flight worker
 * finishes, and the exception is rethrown on the calling thread.
 *
 * The worker count resolves, in order: the explicit `threads`
 * argument, setParallelThreads() (e.g. a bench's --threads flag),
 * the GAIA_THREADS environment variable, and finally
 * std::thread::hardware_concurrency().
 */

#ifndef GAIA_ANALYSIS_PARALLEL_H
#define GAIA_ANALYSIS_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>

#include "common/executor.h"

namespace gaia {

/**
 * Invoke `fn(i)` for i in [0, n) across up to `threads` workers
 * (0 = defaultParallelThreads()). `fn` must be safe to call
 * concurrently for distinct indices; results should be written to
 * pre-sized slots indexed by i. If any invocation throws, no new
 * indices are dispatched, every in-flight call completes, and the
 * first exception is rethrown here. Safe to call from inside a task
 * already running on the executor (nested sweeps).
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn fn, unsigned threads = 0)
{
    if (n == 0)
        return;
    unsigned cap = threads > 0 ? threads : defaultParallelThreads();
    cap = static_cast<unsigned>(std::min<std::size_t>(cap, n));

    if (cap <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    const auto runner = [&next, &stop, &fn, n] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                stop.store(true, std::memory_order_relaxed);
                throw; // captured by the task group
            }
        }
    };

    // cap−1 pool runners plus one inline on the calling thread; a
    // runner that starts late (all indices taken) exits right away,
    // so oversubscription beyond the pool size is harmless.
    TaskGroup group;
    for (unsigned w = 0; w + 1 < cap; ++w)
        group.run(runner);

    std::exception_ptr inline_error;
    try {
        runner();
    } catch (...) {
        inline_error = std::current_exception();
    }
    group.wait(); // rethrows the first pool-side exception
    if (inline_error)
        std::rethrow_exception(inline_error);
}

} // namespace gaia

#endif // GAIA_ANALYSIS_PARALLEL_H

/**
 * @file
 * Process-wide, persistent work-stealing executor.
 *
 * The figure harnesses used to fork and join a fresh thread team on
 * every parallelFor call; sweeps with fewer cells than cores also
 * stranded most of the machine. Executor fixes both: a lazily
 * started singleton pool whose workers live for the process, each
 * owning a deque of tasks — owners push and pop at the back (LIFO,
 * cache-warm), thieves steal from the front (FIFO, oldest first).
 *
 * Work is submitted through a TaskGroup, which supports nested
 * submission: a task running on a worker may open its own TaskGroup
 * and submit subtasks (SweepEngine uses this for cells × per-cell
 * replicas). TaskGroup::wait() *helps* — it executes queued tasks
 * instead of blocking — so nested waits can never deadlock the
 * pool, even when every worker is waiting on an inner group.
 *
 * Shutdown order: the destructor raises the stop flag, wakes every
 * worker, and joins them; workers exit only once their deques are
 * empty, so no accepted task is dropped. The singleton is a
 * function-local static, destroyed after main() returns — by then
 * every TaskGroup (all stack-scoped) has completed.
 *
 * The worker-count resolution (setParallelThreads / GAIA_THREADS /
 * hardware concurrency) lives here too, shared by parallelFor and
 * the pool sizing.
 *
 * Thread-safety and ownership contracts:
 *  - Executor::instance() is safe to call from any thread; the pool
 *    owns its workers and outlives every stack-scoped TaskGroup.
 *  - TaskGroup::run() may be called from any thread, including from
 *    inside a task; a single TaskGroup's run()/wait() calls must
 *    come from one owning thread at a time (the group is a
 *    single-owner handle, not a shared queue).
 *  - Submitted callables are owned by the pool until they finish;
 *    they may capture the owner's stack by reference because wait()
 *    — and the draining destructor — do not return before every
 *    task of the group has run. The first exception a group's task
 *    throws is rethrown from wait(); the destructor drains without
 *    rethrowing.
 *  - setParallelThreads mutates a process global and belongs in
 *    main() before parallel work starts, not in concurrent code.
 */

#ifndef GAIA_COMMON_EXECUTOR_H
#define GAIA_COMMON_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gaia {

class TaskGroup;

/**
 * Largest worker count --threads or GAIA_THREADS may ask for. The
 * pool starts one OS thread per worker, so an unbounded value would
 * try to start that many threads.
 */
constexpr unsigned kMaxParallelThreads = 1024;

/**
 * Override the default worker count for the process (0 restores
 * automatic selection). Takes precedence over GAIA_THREADS. Affects
 * parallelFor's default fan-out immediately; the singleton pool's
 * size is fixed at first use.
 */
void setParallelThreads(unsigned threads);

/**
 * Worker count used when none is passed explicitly:
 * setParallelThreads() override, then GAIA_THREADS, then hardware
 * concurrency (minimum 1). A GAIA_THREADS value that is not an
 * integer in [1, kMaxParallelThreads] is ignored with a
 * once-per-process warning.
 */
unsigned defaultParallelThreads();

/** Persistent work-stealing thread pool. */
class Executor
{
  public:
    /**
     * The process-wide pool, started on first use with
     * defaultParallelThreads() workers.
     */
    static Executor &instance();

    /** Dedicated pool with `workers` threads (tests). */
    explicit Executor(unsigned workers);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Pop-and-run one queued task if any is available (own deque
     * back first on a worker, then steal). Returns false when every
     * deque is empty. Used by TaskGroup::wait() to help instead of
     * blocking.
     */
    bool tryRunOneTask();

  private:
    friend class TaskGroup;

    struct Task
    {
        TaskGroup *group = nullptr;
        std::function<void()> fn;
    };

    /** One worker's deque; the mutex is per-worker, so owners and
     *  thieves contend only pairwise. */
    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void submit(Task task);
    bool popTask(Task &out);
    void runTask(Task &task);
    void workerLoop(unsigned index);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    /** Queued (not yet popped) tasks; parks idle workers. */
    std::atomic<std::size_t> queued_{0};
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> next_queue_{0};
    std::mutex idle_mutex_;
    std::condition_variable idle_cv_;
};

/**
 * A batch of tasks whose completion is awaited together. Not
 * thread-safe for concurrent run() calls from different threads;
 * each group has one owner. Destruction waits for any unfinished
 * tasks (without rethrowing), so tasks may safely capture the
 * owner's stack by reference.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(Executor &executor = Executor::instance())
        : executor_(executor)
    {
    }

    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task; may be called from inside another task. */
    void run(std::function<void()> fn);

    /**
     * Execute queued tasks until every task submitted to this group
     * has finished, then rethrow the first captured exception, if
     * any. Tasks of *other* groups may be executed while helping.
     */
    void wait();

  private:
    friend class Executor;

    void recordError(std::exception_ptr error);

    Executor &executor_;
    std::atomic<std::size_t> pending_{0};
    std::mutex error_mutex_;
    std::exception_ptr first_error_;
};

} // namespace gaia

#endif // GAIA_COMMON_EXECUTOR_H

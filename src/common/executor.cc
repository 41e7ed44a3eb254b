#include "common/executor.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "common/obs.h"

namespace gaia {

namespace {

// Registered once at load so the executor section always appears in
// metrics output; updates are lock-free stripe increments.
obs::Counter &c_tasks_run = obs::counter("executor.tasks_run");
obs::Counter &c_tasks_stolen = obs::counter("executor.tasks_stolen");
obs::Gauge &g_queue_depth = obs::gauge("executor.queue_depth");

/** Process-wide worker-count override; 0 means "not set". */
std::atomic<unsigned> thread_override{0};

/** Worker-local identity for LIFO submission and stealing order. */
thread_local Executor *tl_executor = nullptr;
thread_local unsigned tl_worker_index = 0;

} // namespace

void
setParallelThreads(unsigned threads)
{
    thread_override.store(threads, std::memory_order_relaxed);
}

unsigned
defaultParallelThreads()
{
    const unsigned override_count =
        thread_override.load(std::memory_order_relaxed);
    if (override_count > 0)
        return override_count;
    if (const char *env = std::getenv("GAIA_THREADS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        const bool numeric =
            end != env && end != nullptr && *end == '\0';
        if (numeric && parsed > 0 && parsed <= kMaxParallelThreads)
            return static_cast<unsigned>(parsed);
        static std::once_flag warned;
        std::call_once(warned, [env] {
            warn("ignoring invalid GAIA_THREADS value '", env,
                 "' (expected an integer in [1, ", kMaxParallelThreads,
                 "])");
        });
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 2;
}

Executor &
Executor::instance()
{
    static Executor pool(defaultParallelThreads());
    return pool;
}

Executor::Executor(unsigned workers)
{
    if (workers == 0)
        workers = 1;
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(workers);
    try {
        for (unsigned w = 0; w < workers; ++w)
            threads_.emplace_back([this, w] { workerLoop(w); });
    } catch (...) {
        // Join the part of the team that did start before
        // propagating, mirroring parallelFor's unwind path.
        stop_.store(true, std::memory_order_relaxed);
        idle_cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
        throw;
    }
}

Executor::~Executor()
{
    stop_.store(true, std::memory_order_relaxed);
    {
        // Empty critical section: a worker that checked the
        // predicate but has not yet blocked still sees the store.
        const std::lock_guard<std::mutex> lock(idle_mutex_);
    }
    idle_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
Executor::submit(Task task)
{
    Worker *target = nullptr;
    if (tl_executor == this) {
        // Submission from a worker: push onto its own deque so the
        // owner pops it back LIFO while idle peers steal the front.
        target = workers_[tl_worker_index].get();
    } else {
        const unsigned i = next_queue_.fetch_add(
            1, std::memory_order_relaxed);
        target = workers_[i % workers_.size()].get();
    }
    {
        const std::lock_guard<std::mutex> lock(target->mutex);
        target->tasks.push_back(std::move(task));
    }
    g_queue_depth.set(static_cast<std::int64_t>(
        queued_.fetch_add(1, std::memory_order_release) + 1));
    {
        const std::lock_guard<std::mutex> lock(idle_mutex_);
    }
    idle_cv_.notify_one();
}

bool
Executor::popTask(Task &out)
{
    const std::size_t count = workers_.size();
    // Own deque back first (LIFO); then sweep the others front-first
    // (FIFO), starting after our own slot so thieves spread out.
    const unsigned home =
        tl_executor == this ? tl_worker_index : 0;
    {
        Worker &own = *workers_[home];
        const std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            out = std::move(own.tasks.back());
            own.tasks.pop_back();
            queued_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
    }
    for (std::size_t step = 1; step < count; ++step) {
        Worker &victim = *workers_[(home + step) % count];
        const std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            queued_.fetch_sub(1, std::memory_order_relaxed);
            c_tasks_stolen.add();
            return true;
        }
    }
    return false;
}

void
Executor::runTask(Task &task)
{
    TaskGroup *group = task.group;
    c_tasks_run.add();
    try {
        const obs::Span span("executor.task");
        task.fn();
    } catch (...) {
        group->recordError(std::current_exception());
    }
    // Release the closure before signalling completion: the waiter
    // may unwind the stack the closure captures by reference.
    task.fn = nullptr;
    group->pending_.fetch_sub(1, std::memory_order_acq_rel);
}

bool
Executor::tryRunOneTask()
{
    Task task;
    if (!popTask(task))
        return false;
    runTask(task);
    return true;
}

void
Executor::workerLoop(unsigned index)
{
    tl_executor = this;
    tl_worker_index = index;
    obs::setThreadTrackName("worker " + std::to_string(index));
    for (;;) {
        Task task;
        if (popTask(task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lock(idle_mutex_);
        idle_cv_.wait(lock, [this] {
            return stop_.load(std::memory_order_relaxed) ||
                   queued_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_relaxed) &&
            queued_.load(std::memory_order_acquire) == 0)
            return;
    }
}

TaskGroup::~TaskGroup()
{
    // Drain without rethrowing: wait() already surfaced the first
    // error if the owner asked for it.
    while (pending_.load(std::memory_order_acquire) > 0) {
        if (!executor_.tryRunOneTask())
            std::this_thread::yield();
    }
}

void
TaskGroup::run(std::function<void()> fn)
{
    pending_.fetch_add(1, std::memory_order_relaxed);
    executor_.submit(Executor::Task{this, std::move(fn)});
}

void
TaskGroup::wait()
{
    while (pending_.load(std::memory_order_acquire) > 0) {
        // Help: run whatever is queued (possibly other groups'
        // tasks) instead of blocking a thread the pool could use.
        if (!executor_.tryRunOneTask())
            std::this_thread::yield();
    }
    std::exception_ptr error;
    {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        error = first_error_;
        first_error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
TaskGroup::recordError(std::exception_ptr error)
{
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_)
        first_error_ = error;
}

} // namespace gaia

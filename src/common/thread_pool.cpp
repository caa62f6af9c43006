#include "common/thread_pool.h"

#include "obs/span.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

namespace w4k {
namespace {

// True while the current thread is executing a parallel_for chunk; nested
// parallel_for calls detect this and run inline instead of re-entering the
// pool (which would deadlock the waiting outer call).
thread_local bool t_in_pool_body = false;

std::size_t default_pool_size() {
  if (const char* env = std::getenv("W4K_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

// One parallel_for invocation. Each job owns its chunk cursor and
// completion state, so a worker that wakes late and drains an
// already-finished job can never touch a newer job's body or counters.
//
// Jobs are pooled in Impl::jobs and recycled: a job may be re-acquired
// only when it is not in use by a caller AND no worker is inside run()
// (`entrants` == 0, checked under Impl::mu — the same mutex a worker
// holds while registering as an entrant). A straggler worker that grabs a
// retired-but-not-yet-recycled job simply observes an exhausted chunk
// cursor and leaves without writing anything.
struct ThreadPool::Impl {
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t n_chunks = 0;
    BodyRef body;
    std::atomic<std::size_t> next_chunk{0};
    /// Workers currently between registering for this job and leaving
    /// run(). Incremented under Impl::mu, decremented under `mu` below.
    std::atomic<int> entrants{0};
    bool in_use = false;  ///< held by a parallel_for caller (under Impl::mu)

    std::mutex mu;
    std::condition_variable cv_done;
    std::size_t chunks_done = 0;
    std::exception_ptr first_error;

    void run() {
      std::size_t completed = 0;
      for (;;) {
        const std::size_t c =
            next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= n_chunks) break;
        const std::size_t b = begin + c * grain;
        const std::size_t e = std::min(end, b + grain);
        t_in_pool_body = true;
        try {
          body.fn(body.ctx, b, e);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error) first_error = std::current_exception();
        }
        t_in_pool_body = false;
        ++completed;
      }
      if (completed > 0) {
        std::lock_guard<std::mutex> lock(mu);
        chunks_done += completed;
        if (chunks_done == n_chunks) cv_done.notify_all();
      }
    }
  };

  std::mutex mu;
  std::condition_variable cv_work;
  std::uint64_t job_generation = 0;
  Job* current = nullptr;
  bool shutting_down = false;
  std::vector<std::unique_ptr<Job>> jobs;
  std::vector<std::thread> workers;

  /// Finds (or creates) a recyclable job. Caller must hold `mu`.
  Job* acquire_job() {
    for (auto& j : jobs) {
      if (!j->in_use && j->entrants.load(std::memory_order_acquire) == 0) {
        j->in_use = true;
        return j.get();
      }
    }
    jobs.push_back(std::make_unique<Job>());
    jobs.back()->in_use = true;
    return jobs.back().get();
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock,
                     [&] { return shutting_down || job_generation != seen; });
        if (shutting_down) return;
        seen = job_generation;
        job = current;
        // Register as inside the job while still holding Impl::mu: from
        // here until the decrement below, acquire_job will not recycle it.
        if (job != nullptr)
          job->entrants.fetch_add(1, std::memory_order_acq_rel);
      }
      if (job != nullptr) {
        job->run();
        {
          std::lock_guard<std::mutex> lock(job->mu);
          job->entrants.fetch_sub(1, std::memory_order_acq_rel);
          job->cv_done.notify_all();
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(std::make_unique<Impl>()),
      size_(threads > 0 ? threads : default_pool_size()) {
  // Each worker can straggle inside at most one retired job, so one job
  // per execution context covers a caller's worst case and acquire_job
  // never allocates in the steady state, however late workers wake.
  impl_->jobs.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i)
    impl_->jobs.push_back(std::make_unique<Impl::Job>());
  impl_->workers.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i)
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::parallel_for_impl(std::size_t begin, std::size_t end,
                                   std::size_t grain, BodyRef body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n_chunks = (end - begin + grain - 1) / grain;
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& c_calls = reg.counter("pool.parallel_for");
    static obs::Counter& c_chunks = reg.counter("pool.chunks");
    c_calls.add(1);
    c_chunks.add(n_chunks);
  }
  // Serial fast paths: single-context pool, a one-chunk range, or a nested
  // call from inside a worker. Chunk boundaries are identical to the
  // parallel path, so results are too.
  if (size_ == 1 || n_chunks == 1 || t_in_pool_body) {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t b = begin + c * grain;
      body.fn(body.ctx, b, std::min(end, b + grain));
    }
    return;
  }

  Impl::Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    job = impl_->acquire_job();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->n_chunks = n_chunks;
    job->body = body;
    job->next_chunk.store(0, std::memory_order_relaxed);
    job->chunks_done = 0;
    job->first_error = nullptr;
    impl_->current = job;
    ++impl_->job_generation;
  }
  impl_->cv_work.notify_all();
  job->run();  // the calling thread is one of the pool's execution contexts
  // Caller-side wait: how long the issuing thread blocks on stragglers
  // after finishing its own share of the chunks. Waiting for entrants to
  // reach zero (not just for the chunk count) is what makes recycling the
  // job safe: once this returns, no worker holds a pointer to it that it
  // will still dereference.
  const std::uint64_t wait_t0 = obs::enabled() ? obs::now_ns() : 0;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv_done.wait(lock, [&] {
      return job->chunks_done == job->n_chunks &&
             job->entrants.load(std::memory_order_acquire) == 0;
    });
  }
  if (obs::enabled()) {
    static obs::Histogram& h_wait = obs::MetricsRegistry::global().histogram(
        "pool.wait_us", {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0});
    h_wait.observe(static_cast<double>(obs::now_ns() - wait_t0) / 1e3);
  }
  const std::exception_ptr err = job->first_error;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    job->in_use = false;
  }
  if (err) std::rethrow_exception(err);
}

namespace {

std::unique_ptr<ThreadPool>& shared_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& shared_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(shared_mu());
  auto& slot = shared_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::reset_shared(std::size_t threads) {
  std::lock_guard<std::mutex> lock(shared_mu());
  shared_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace w4k

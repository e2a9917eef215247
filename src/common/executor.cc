#include "common/executor.h"

#include <algorithm>

namespace dar {

namespace {

// First error in index order wins; within a chunk the body keeps running
// past a failure so side effects match every other schedule.
Status RunChunk(size_t begin, size_t end,
                const std::function<Status(size_t)>& body) {
  Status first = Status::OK();
  for (size_t i = begin; i < end; ++i) {
    Status s = body(i);
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

}  // namespace

Status SerialExecutor::ParallelFor(size_t n,
                                   const std::function<Status(size_t)>& body) {
  return RunChunk(0, n, body);
}

ThreadPoolExecutor::ThreadPoolExecutor(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    const MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : workers_) t.join();
}

void ThreadPoolExecutor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

Status ThreadPoolExecutor::ParallelFor(
    size_t n, const std::function<Status(size_t)>& body) {
  if (n == 0) return Status::OK();
  size_t num_chunks = std::min<size_t>(workers_.size(), n);
  if (num_chunks <= 1) return RunChunk(0, n, body);

  struct Batch {
    Mutex mu;
    CondVar done_cv;
    size_t remaining DAR_GUARDED_BY(mu) = 0;
    std::vector<Status> statuses DAR_GUARDED_BY(mu);  // per chunk, in order
  };
  Batch batch;
  {
    // No worker exists yet, but initializing under the lock keeps the
    // guarded-field accounting uniform.
    const MutexLock lock(batch.mu);
    batch.remaining = num_chunks;
    batch.statuses.resize(num_chunks);
  }

  {
    const MutexLock lock(mu_);
    for (size_t c = 0; c < num_chunks; ++c) {
      // Even split: the first (n % num_chunks) chunks take one extra index.
      size_t base = n / num_chunks, extra = n % num_chunks;
      size_t begin = c * base + std::min(c, extra);
      size_t end = begin + base + (c < extra ? 1 : 0);
      queue_.push_back([&batch, &body, c, begin, end] {
        Status s = RunChunk(begin, end, body);
        const MutexLock batch_lock(batch.mu);
        batch.statuses[c] = std::move(s);
        if (--batch.remaining == 0) batch.done_cv.NotifyOne();
      });
    }
  }
  work_cv_.NotifyAll();

  const MutexLock lock(batch.mu);
  while (batch.remaining != 0) batch.done_cv.Wait(batch.mu);
  // Chunks cover ascending index ranges, so the first chunk with an error
  // holds the smallest failing index.
  for (Status& s : batch.statuses) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

Executor& ResolveExecutor(Executor* executor) {
  static SerialExecutor serial;
  return executor != nullptr ? *executor : serial;
}

std::shared_ptr<Executor> MakeExecutor(int num_threads) {
  if (num_threads == 0) num_threads = HardwareParallelism();
  if (num_threads <= 1) return std::make_shared<SerialExecutor>();
  return std::make_shared<ThreadPoolExecutor>(num_threads);
}

int HardwareParallelism() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace dar

#ifndef DAR_COMMON_EXECUTOR_H_
#define DAR_COMMON_EXECUTOR_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace dar {

/// Strategy for running independent index-space loops — the library's only
/// parallelism primitive. The mining pipeline is written against this
/// interface so the same code runs serially or on a thread pool.
///
/// Determinism contract: ParallelFor partitions [0, n) *statically* into
/// contiguous chunks (no work stealing), every index is invoked exactly
/// once, and callers write results into per-index (or per-shard) slots that
/// are merged in index order afterwards. Under that discipline the final
/// output is bit-identical for every Executor implementation and thread
/// count — the guarantee dar::Session builds on.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Number of workers ParallelFor spreads work over (>= 1).
  virtual int parallelism() const = 0;

  /// Invokes body(i) for every i in [0, n), possibly concurrently, and
  /// blocks until all invocations return. Every index is attempted even
  /// when another fails (so side effects do not depend on timing); the
  /// returned Status is OK iff all were, else the error of the *smallest*
  /// failing index — deterministic regardless of scheduling.
  ///
  /// `body` must be safe to invoke concurrently from multiple threads and
  /// must not call ParallelFor on the same executor (non-reentrant).
  virtual Status ParallelFor(size_t n,
                             const std::function<Status(size_t)>& body) = 0;
};

/// Runs everything inline on the calling thread. The reference
/// implementation for the determinism contract.
class SerialExecutor : public Executor {
 public:
  int parallelism() const override { return 1; }
  Status ParallelFor(size_t n,
                     const std::function<Status(size_t)>& body) override;
};

/// A fixed-size pool of worker threads with a FIFO task queue. ParallelFor
/// splits [0, n) into at most `num_threads` contiguous chunks, enqueues
/// them, and blocks the caller until every chunk has run. There is no work
/// stealing: the index->chunk assignment depends only on (n, num_threads),
/// keeping runs reproducible.
class ThreadPoolExecutor : public Executor {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPoolExecutor(int num_threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  int parallelism() const override {
    return static_cast<int>(workers_.size());
  }
  Status ParallelFor(size_t n,
                     const std::function<Status(size_t)>& body) override;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ DAR_GUARDED_BY(mu_);
  bool stopping_ DAR_GUARDED_BY(mu_) = false;
};

/// The executor a "null = serial" parameter names: `executor` itself, or
/// one shared SerialExecutor (it holds no state) when `executor` is null.
/// Every library loop that takes an optional executor resolves it here.
Executor& ResolveExecutor(Executor* executor);

/// `num_threads <= 1` yields a SerialExecutor, anything larger a
/// ThreadPoolExecutor of that size. `num_threads == 0` means "use the
/// hardware concurrency".
std::shared_ptr<Executor> MakeExecutor(int num_threads);

/// std::thread::hardware_concurrency with a floor of 1.
int HardwareParallelism();

}  // namespace dar

#endif  // DAR_COMMON_EXECUTOR_H_

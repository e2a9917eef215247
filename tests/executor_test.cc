// ParallelFor semantics shared by every Executor: each index invoked
// exactly once, deterministic smallest-index error selection, n == 0,
// n far above and below the worker count, and pool reuse.

#include "common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace dar {
namespace {

// Runs the cross-implementation contract against `ex`.
void CheckContract(Executor& ex) {
  // Every index in [0, n) exactly once, for n straddling the worker count.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{64}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    Status s = ex.ParallelFor(n, [&](size_t i) {
      ++hits[i];
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << "n=" << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "i=" << i;
  }

  // The reported error is the smallest failing index's, and indices after
  // a failure are still attempted (side effects don't depend on timing).
  std::atomic<int> attempts{0};
  Status s = ex.ParallelFor(100, [&](size_t i) -> Status {
    ++attempts;
    if (i == 97) return Status::Internal("fail@97");
    if (i == 13) return Status::InvalidArgument("fail@13");
    return Status::OK();
  });
  EXPECT_EQ(attempts, 100);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "fail@13");
}

TEST(ExecutorTest, SerialContract) {
  SerialExecutor ex;
  // A null executor resolves to the shared serial one; any other to itself.
  EXPECT_EQ(&ResolveExecutor(&ex), &ex);
  for (Executor* serial :
       {static_cast<Executor*>(&ex), &ResolveExecutor(nullptr)}) {
    EXPECT_EQ(serial->parallelism(), 1);
    CheckContract(*serial);
  }
}

TEST(ExecutorTest, SerialRunsInAscendingOrder) {
  SerialExecutor ex;
  std::vector<size_t> order;
  ASSERT_TRUE(ex.ParallelFor(5, [&](size_t i) {
                  order.push_back(i);
                  return Status::OK();
                }).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, ThreadPoolContract) {
  for (int threads : {2, 4, 8}) {
    ThreadPoolExecutor ex(threads);
    EXPECT_EQ(ex.parallelism(), threads);
    CheckContract(ex);
  }
}

TEST(ExecutorTest, ThreadPoolClampsToAtLeastOneWorker) {
  ThreadPoolExecutor ex(0);
  EXPECT_EQ(ex.parallelism(), 1);
  CheckContract(ex);
}

TEST(ExecutorTest, ThreadPoolIsReusableAcrossLoops) {
  ThreadPoolExecutor ex(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> sum{0};
    ASSERT_TRUE(ex.ParallelFor(257, [&](size_t i) {
                    sum += i;
                    return Status::OK();
                  }).ok());
    EXPECT_EQ(sum, 257u * 256u / 2);
  }
}

TEST(ExecutorTest, ThreadPoolChunkingIsStaticAndContiguous) {
  // The header's promise: [0, n) splits evenly into min(k, n) contiguous
  // chunks, the first n % chunks of them one index longer, and each chunk
  // runs start to end on one thread. A fast worker may legitimately run
  // several chunks, so only per-chunk ownership and order are asserted.
  ThreadPoolExecutor ex(4);
  const size_t n = 1003;
  std::vector<std::thread::id> owner(n);
  std::vector<size_t> order(n);  // global invocation sequence number
  std::atomic<size_t> sequence{0};
  ASSERT_TRUE(ex.ParallelFor(n, [&](size_t i) {
                  owner[i] = std::this_thread::get_id();
                  order[i] = sequence++;
                  return Status::OK();
                }).ok());
  const size_t chunks = 4;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = begin + n / chunks + (c < n % chunks ? 1 : 0);
    for (size_t i = begin + 1; i < end; ++i) {
      EXPECT_EQ(owner[i], owner[begin]) << "chunk " << c << " split at " << i;
      EXPECT_LT(order[i - 1], order[i]) << "chunk " << c << " out of order";
    }
    begin = end;
  }
  EXPECT_EQ(begin, n);
  std::set<std::thread::id> distinct(owner.begin(), owner.end());
  EXPECT_LE(distinct.size(), chunks);
}

TEST(ExecutorTest, MakeExecutorDispatch) {
  EXPECT_EQ(MakeExecutor(-3)->parallelism(), 1);
  EXPECT_EQ(MakeExecutor(1)->parallelism(), 1);
  EXPECT_EQ(MakeExecutor(4)->parallelism(), 4);
  // 0 means hardware concurrency (floor 1).
  std::shared_ptr<Executor> hw = MakeExecutor(0);
  EXPECT_EQ(hw->parallelism(), HardwareParallelism());
  EXPECT_GE(hw->parallelism(), 1);
  CheckContract(*MakeExecutor(1));
  CheckContract(*MakeExecutor(4));
}

TEST(ExecutorTest, HardwareParallelismHasFloorOne) {
  EXPECT_GE(HardwareParallelism(), 1);
}

}  // namespace
}  // namespace dar

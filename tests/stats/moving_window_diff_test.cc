// Differential test: MovingWindow against the std::deque implementation
// it replaced, kept here verbatim as the oracle. Sum, Mean, Oldest and
// Newest must be bitwise equal after every operation. Values mix
// magnitudes so that a different summation order (say, evicting before
// adding) rounds differently and shows.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "wsq/stats/moving_window.h"

namespace wsq {
namespace {

// ---- Oracle: the deque-based MovingWindow, verbatim. ----------------

class DequeMovingWindow {
 public:
  explicit DequeMovingWindow(size_t capacity);

  void Add(double value);

  bool full() const { return values_.size() == capacity_; }
  bool empty() const { return values_.empty(); }
  size_t size() const { return values_.size(); }
  size_t capacity() const { return capacity_; }

  double Mean() const;
  double Sum() const { return sum_; }
  double Oldest() const { return values_.front(); }
  double Newest() const { return values_.back(); }

  void Clear();

 private:
  size_t capacity_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

DequeMovingWindow::DequeMovingWindow(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void DequeMovingWindow::Add(double value) {
  values_.push_back(value);
  sum_ += value;
  if (values_.size() > capacity_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double DequeMovingWindow::Mean() const {
  if (values_.empty()) return 0.0;
  return sum_ / static_cast<double>(values_.size());
}

void DequeMovingWindow::Clear() {
  values_.clear();
  sum_ = 0.0;
}

// ---- The comparison. ------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSame(const MovingWindow& fast, const DequeMovingWindow& oracle) {
  ASSERT_EQ(fast.size(), oracle.size());
  EXPECT_EQ(fast.empty(), oracle.empty());
  EXPECT_EQ(fast.full(), oracle.full());
  EXPECT_EQ(fast.capacity(), oracle.capacity());
  EXPECT_EQ(Bits(fast.Sum()), Bits(oracle.Sum()));
  EXPECT_EQ(Bits(fast.Mean()), Bits(oracle.Mean()));
  if (!oracle.empty()) {
    EXPECT_EQ(Bits(fast.Oldest()), Bits(oracle.Oldest()));
    EXPECT_EQ(Bits(fast.Newest()), Bits(oracle.Newest()));
  }
}

TEST(MovingWindowDifferentialTest, MatchesDequeOracleBitForBit) {
  for (size_t capacity = 1; capacity <= 9; ++capacity) {
    std::mt19937_64 rng(1000 + capacity);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    MovingWindow fast(capacity);
    DequeMovingWindow oracle(capacity);
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " step " +
                   std::to_string(step));
      const double pick = unit(rng);
      if (pick < 0.01) {
        fast.Clear();
        oracle.Clear();
      } else {
        // Magnitudes from 1e-3 to 1e13, either sign: sums that lose
        // low bits, so the order of += and -= is visible.
        const double scale = std::pow(10.0, -3.0 + 16.0 * unit(rng));
        const double value = (unit(rng) - 0.3) * scale;
        fast.Add(value);
        oracle.Add(value);
      }
      ExpectSame(fast, oracle);
      if (HasFailure()) return;
    }
  }
}

TEST(MovingWindowDifferentialTest, ZeroCapacityAndReuseAfterClear) {
  MovingWindow fast(0);
  DequeMovingWindow oracle(0);
  for (int round = 0; round < 3; ++round) {
    for (double v : {1e16, 1.0, -1e16, 3.0, 0.1}) {
      fast.Add(v);
      oracle.Add(v);
      ExpectSame(fast, oracle);
    }
    fast.Clear();
    oracle.Clear();
    ExpectSame(fast, oracle);
  }
}

}  // namespace
}  // namespace wsq

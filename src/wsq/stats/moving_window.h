#ifndef WSQ_STATS_MOVING_WINDOW_H_
#define WSQ_STATS_MOVING_WINDOW_H_

#include <cstddef>
#include <vector>

namespace wsq {

/// Fixed-capacity sliding window with O(1) running mean, used for the
/// averaging horizon n of the switching controllers ({x̄_k, ȳ_k} in
/// paper Eq. (2)) and for the sign-switch counting horizon n' of Eq. (5).
///
/// A ring over one slot array: the slots are reserved at construction
/// (up to kReservedSlots; a larger window grows as it first fills) and
/// reused after Clear(), so a window of the controllers' sizes
/// allocates once in its life.
class MovingWindow {
 public:
  /// Capacity must be >= 1; smaller requests are promoted to 1.
  explicit MovingWindow(size_t capacity);

  /// Pushes a value, evicting the oldest when full.
  void Add(double value);

  bool full() const { return slots_.size() == capacity_; }
  bool empty() const { return slots_.empty(); }
  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }

  /// Mean of the current contents; 0 when empty.
  double Mean() const;

  /// Sum of the current contents.
  double Sum() const { return sum_; }

  /// Oldest / newest values; callers must check !empty() first.
  double Oldest() const { return slots_[head_]; }
  double Newest() const {
    return slots_[(head_ + slots_.size() - 1) % slots_.size()];
  }

  void Clear();

 private:
  /// Slots reserved up front; bounds what an absurd capacity costs
  /// before any value arrives.
  static constexpr size_t kReservedSlots = 64;

  size_t capacity_;
  /// The values, oldest at head_. While the window fills, values are
  /// appended and head_ stays 0; once full, Add overwrites the oldest.
  std::vector<double> slots_;
  size_t head_ = 0;
  double sum_ = 0.0;
};

}  // namespace wsq

#endif  // WSQ_STATS_MOVING_WINDOW_H_

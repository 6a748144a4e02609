#include "wsq/stats/moving_window.h"

#include <algorithm>

namespace wsq {

MovingWindow::MovingWindow(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {
  slots_.reserve(std::min(capacity_, kReservedSlots));
}

void MovingWindow::Add(double value) {
  sum_ += value;
  if (slots_.size() < capacity_) {
    slots_.push_back(value);
    return;
  }
  // Add, then evict: this order fixes how the running sum rounds, and
  // the controllers' decisions (so every figure) depend on it.
  sum_ -= slots_[head_];
  slots_[head_] = value;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

double MovingWindow::Mean() const {
  if (slots_.empty()) return 0.0;
  return sum_ / static_cast<double>(slots_.size());
}

void MovingWindow::Clear() {
  slots_.clear();
  head_ = 0;
  sum_ = 0.0;
}

}  // namespace wsq

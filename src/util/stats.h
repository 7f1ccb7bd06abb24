// Small statistics helpers: a running count/sum/min/max accumulator and a
// zero-safe percentage. Used for latency accounting and the bench tables.

#ifndef DPROF_SRC_UTIL_STATS_H_
#define DPROF_SRC_UTIL_STATS_H_

#include <cstdint>

namespace dprof {

// Accumulates count / sum / min / max; O(1) memory.
class RunningStat {
 public:
  void Add(double x) {
    if (count_ == 0 || x < min_) {
      min_ = x;
    }
    if (count_ == 0 || x > max_) {
      max_ = x;
    }
    sum_ += x;
    ++count_;
  }

  void Merge(const RunningStat& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (count_ == 0 || other.max_ > max_) {
      max_ = other.max_;
    }
    sum_ += other.sum_;
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentage helper that tolerates zero denominators.
inline double Pct(double num, double den) { return den == 0.0 ? 0.0 : 100.0 * num / den; }

}  // namespace dprof

#endif  // DPROF_SRC_UTIL_STATS_H_

#include "util/run_controller.h"

#include <cmath>
#include <limits>

namespace adalsh {

const char* TerminationReasonName(TerminationReason reason) {
  switch (reason) {
    case TerminationReason::kCompleted:
      return "completed";
    case TerminationReason::kDeadline:
      return "deadline";
    case TerminationReason::kCancelled:
      return "cancelled";
    case TerminationReason::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "unknown";
}

Status RunBudget::Validate() const {
  if (!std::isfinite(deadline_ms) || deadline_ms > kMaxDeadlineMs) {
    return Status::InvalidArgument(
        "deadline_ms must be finite and at most 1e12 (about 31 years)");
  }
  return Status::Ok();
}

RunController::RunController(const RunBudget& budget) : budget_(budget) {
  Arm();
}

void RunController::Arm(uint64_t hash_base, uint64_t pairwise_base) {
  if (budget_.deadline_ms > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        budget_.deadline_ms));
  } else {
    has_deadline_ = false;
  }
  hash_base_ = hash_base;
  pairwise_base_ = pairwise_base;
  hashes_ = hash_base;
  pairwise_ = pairwise_base;
  reason_ = TerminationReason::kCompleted;
}

bool RunController::ShouldStop() {
  if (reason_ != TerminationReason::kCompleted) return true;  // sticky
  if (cancelled_.load(std::memory_order_acquire)) {
    reason_ = TerminationReason::kCancelled;
    return true;
  }
  if (budget_.max_pairwise > 0 &&
      pairwise_ - pairwise_base_ >= budget_.max_pairwise) {
    reason_ = TerminationReason::kBudgetExhausted;
    return true;
  }
  if (budget_.max_hashes > 0 && hashes_ - hash_base_ >= budget_.max_hashes) {
    reason_ = TerminationReason::kBudgetExhausted;
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    reason_ = TerminationReason::kDeadline;
    return true;
  }
  return false;
}

double RunController::RemainingMillis() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double, std::milli>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

}  // namespace adalsh

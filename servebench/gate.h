// Copyright 2026 The ConsensusDB Authors
//
// The correctness gate: every timed response is compared with a reference
// answer computed by a fresh front end with the caches off and one engine
// thread.
//
// Comparison rules, per response line (both parsed with ParseResponseLine):
//   * both must be ok lines with the same field names in the same order,
//     trace_* fields ignored — an error line fails even when the reference
//     gave the same error;
//   * the double-valued fields (kDoubleFields) compare element-wise within
//     a relative tolerance of kRelTol (absolute kAbsTol near zero), so a
//     future path that reorders floating-point sums is judged on value
//     rather than on bytes;
//   * a differing `keys` list is accepted only when the response carries
//     an `expected` distance that ties the reference's within the same
//     tolerance (two answers of equal expected distance are both correct);
//   * every other field compares exactly.

#ifndef SERVEBENCH_GATE_H_
#define SERVEBENCH_GATE_H_

#include <string>

namespace servebench {

inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsTol = 1e-12;

/// \brief Compares one response line against its reference. Returns an
/// empty string when they agree, else a one-line description of the first
/// difference.
std::string CompareResponses(const std::string& got,
                             const std::string& reference);

/// \brief Checks the gate against deliberately perturbed copies of
/// `reference` (an ok topk line with keys and expected): a drift beyond the
/// tolerance and a changed key list must trip it, a drift within the
/// tolerance must not, nor may an error line that equals an error
/// reference. Returns an empty string when all cases behave.
std::string SelfTestGate(const std::string& reference);

}  // namespace servebench

#endif  // SERVEBENCH_GATE_H_

// Stateful attestation sessions over an unreliable channel.
//
// `Verifier::verify` answers one question about one response; a deployed
// verifier must *drive* the protocol over a radio that loses, corrupts and
// delays frames.  AttestationSession is that driver: a verifier-side state
// machine with a per-attempt response timeout, a bounded retry budget and
// exponential backoff with jitter.
//
// Two invariants carry the paper's Section 4.2 security argument through
// the retry policy:
//
//   1. Every retry uses a FRESH nonce (a new `make_request`).  The time
//      bound is per-challenge; replaying a nonce would hand the prover the
//      previous attempt's elapsed time as free precomputation.
//   2. Retrying never extends the per-attempt deadline.  Each attempt is
//      verified against its own `deadline_us`; an overclocking or proxy
//      adversary gains nothing from extra attempts because every attempt
//      fails the same per-challenge check.
//
// Transport faults and protocol evidence are kept strictly apart: a lost
// or CRC-failing frame says nothing about the prover and is retried, while
// an intact frame that fails verification is evidence and terminates the
// session as kRejected.  kTimeExceeded is the one ambiguous verdict — the
// link's jitter can push an honest response past the deadline — so it is
// retried (policy-controlled), but a session that *ends* on it still ends
// kRejected: silence is inconclusive, slowness is not acceptance.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/faulty_channel.hpp"
#include "core/protocol.hpp"
#include "obs/trace.hpp"

namespace pufatt::core {

struct SessionPolicy {
  std::size_t max_attempts = 4;  ///< 1 disables retries
  /// How long the verifier waits for a response before declaring the
  /// attempt dead (also the wall-time charged for a silent attempt).
  double response_timeout_us = 500'000.0;
  double backoff_base_us = 20'000.0;  ///< backoff before the first retry
  double backoff_factor = 2.0;        ///< exponential growth per retry
  double backoff_jitter = 0.25;       ///< uniform +/- fraction of the nominal
  /// Retry kTimeExceeded verdicts (they may be jitter-induced).  Checksum
  /// and PUF-reconstruction failures are never retried: those frames
  /// arrived intact, so the fault is the prover's.
  bool retry_time_exceeded = true;
};

/// Terminal outcome of a whole session (vs. VerifyStatus for one response).
enum class SessionStatus {
  kAccepted,
  kRejected,            ///< an intact response failed verification
  kTimeout,             ///< every attempt ended in silence
  kTransportCorrupted,  ///< every failed attempt was a corrupted frame
  kRetriesExhausted,    ///< mixed transport faults exhausted the budget
};

const char* to_string(SessionStatus status);

/// One protocol attempt, recorded for observability.
struct AttemptRecord {
  std::uint64_t nonce = 0;
  double backoff_us = 0.0;  ///< wait before this attempt (0 for the first)
  bool request_delivered = false;   ///< reached the prover with a valid CRC
  bool request_corrupted = false;   ///< arrived but discarded by the prover
  bool response_delivered = false;
  bool response_corrupted = false;  ///< delivered but failed CRC/parse
  double elapsed_us = 0.0;  ///< what the verifier's clock measured
  std::optional<VerifyStatus> verify;  ///< set iff an intact frame was verified
  bool over_weighted_budget = false;  ///< see VerifyResult
};

struct SessionOutcome {
  SessionStatus status = SessionStatus::kTimeout;
  std::vector<AttemptRecord> attempts;
  double total_us = 0.0;  ///< wall time: attempts + timeouts + backoff
  bool accepted() const { return status == SessionStatus::kAccepted; }
  /// True when the session produced evidence about the prover (accept or
  /// reject); transport-starved sessions are inconclusive.
  bool conclusive() const {
    return status == SessionStatus::kAccepted ||
           status == SessionStatus::kRejected;
  }
  /// Verdict of the last verified attempt, if any attempt got that far.
  std::optional<VerifyStatus> last_verify() const;
};

/// What a prover hands back for one request.
struct ProverReply {
  AttestationResponse response;
  double compute_us = 0.0;
};

/// Adapts any prover (CpuProver, proxy adversary, ...) to the session.
using Responder = std::function<ProverReply(const AttestationRequest&)>;

class AttestationSession {
 public:
  /// `verifier` and `channel` must outlive the session.
  AttestationSession(const Verifier& verifier, FaultyChannel& channel,
                     const SessionPolicy& policy = {});

  /// Drives the protocol to a terminal outcome.  `rng` supplies nonces and
  /// backoff jitter; all channel randomness lives in the channel's own
  /// seeded stream, so (session rng seed, channel seed) reproduce the
  /// exact attempt trace.
  ///
  /// `trace` (optional) records the session as spans: one "session.run"
  /// root under the scope's parent, one "session.attempt" child per
  /// protocol attempt carrying the simulated timings the δ argument runs
  /// on (elapsed_us / deadline_us), the backoff charged before the
  /// attempt, and the channel's fault events (bits flipped, delivery) as
  /// annotations.  The attempt spans are the AttemptRecord vector in
  /// span form; the records themselves are unchanged.
  SessionOutcome run(const Responder& responder, support::Xoshiro256pp& rng,
                     const obs::TraceScope& trace = {});

  const SessionPolicy& policy() const { return policy_; }

 private:
  SessionOutcome run_impl(const Responder& responder,
                          support::Xoshiro256pp& rng, obs::Span& run_span);

  const Verifier* verifier_;
  FaultyChannel* channel_;
  SessionPolicy policy_;
};

}  // namespace pufatt::core

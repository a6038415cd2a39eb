// REST client with simulated network conditions: latency, transient
// failures, deterministic exponential backoff with jitter, and a per-client
// circuit breaker — the PMS communication-management module's transport
// (paper §2.2.5). Breaker state machine and backoff semantics are
// documented in DESIGN.md "Failure model & recovery".
#pragma once

#include <cstddef>
#include <string>

#include "net/http.hpp"
#include "net/router.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace pmware::net {

struct NetworkConditions {
  double failure_prob = 0.0;       ///< chance a request is lost (503)
  SimDuration latency_s = 0;       ///< simulated round-trip, whole seconds
};

/// Retry schedule: attempt k (1-based retry) waits
/// min(backoff_base_s * 2^(k-1), backoff_cap_s) plus a uniform jitter draw
/// in [0, jitter * backoff] simulated seconds. All waits are sim-time only
/// (accumulated into latency accounting), never wall-clock.
struct RetryPolicy {
  int max_retries = 2;
  SimDuration backoff_base_s = 2;
  SimDuration backoff_cap_s = 60;
  double jitter = 0.5;  ///< fraction of the backoff drawn as jitter; 0 = none
};

/// Circuit breaker: after `failure_threshold` consecutive failed send()
/// calls (final status 503) the breaker opens and send() fast-fails without
/// touching the network until `cooldown_s` of sim-time has passed; the next
/// send() then runs as a single half-open probe that closes the breaker on
/// success or re-opens it for another cooldown on failure.
struct BreakerPolicy {
  int failure_threshold = 5;   ///< <= 0 disables the breaker
  SimDuration cooldown_s = minutes(5);
};

enum class BreakerState { Closed = 0, Open = 1, HalfOpen = 2 };
const char* to_string(BreakerState s);

/// Inert (the client caches nothing); kept only so perfbench/ compiles.
struct CachePolicy {
  bool enabled = false;
  std::size_t capacity = 64;
};

/// Per-client transport totals. Since the telemetry subsystem landed this is
/// a *view*: the source of truth is the process-wide metrics registry
/// (net_* families, labeled by client instance); stats() assembles it on
/// demand.
struct ClientStats {
  std::size_t requests = 0;
  std::size_t failures = 0;   ///< transport-level losses observed
  std::size_t retries = 0;
  std::size_t bytes_sent = 0; ///< serialized JSON body bytes
  SimDuration total_latency = 0;
  SimDuration backoff_s = 0;         ///< sim-seconds spent waiting to retry
  std::size_t breaker_opens = 0;     ///< closed/half-open -> open transitions
  std::size_t breaker_fast_fails = 0;///< sends rejected while open
};

class RestClient {
 public:
  /// `server` must outlive the client.
  RestClient(const Router* server, NetworkConditions conditions, Rng rng);

  /// Sends a request; transparently retries transport failures and server
  /// 503s with capped exponential backoff. `max_retries` = -1 (default)
  /// uses the RetryPolicy; an explicit value overrides the attempt budget
  /// for this call only. Returns the final response (503 if every attempt
  /// failed, or immediately if the circuit breaker is open). The request is
  /// taken by value and stamped in place (auth, trace and attempt headers):
  /// a caller that is done with its request moves it in and nothing is
  /// copied.
  HttpResponse send(HttpRequest request, int max_retries = -1);

  /// Assembled from the metrics registry (family "net_*", this client's
  /// instance label); zeros after telemetry::registry().reset().
  ClientStats stats() const;

  /// Value of this client's "instance" metric label, e.g. "c3".
  const std::string& instance_label() const { return instance_; }

  /// Default bearer token attached to every request (set after
  /// registration); empty disables.
  void set_auth_token(std::string token) { token_ = std::move(token); }
  const std::string& auth_token() const { return token_; }

  void set_network_conditions(NetworkConditions conditions) {
    conditions_ = conditions;
  }
  const NetworkConditions& network_conditions() const { return conditions_; }
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }
  void set_breaker_policy(BreakerPolicy policy) { breaker_ = policy; }
  const BreakerPolicy& breaker_policy() const { return breaker_; }
  /// Inert (see CachePolicy); kept only so perfbench/ compiles.
  void set_cache_policy(CachePolicy) {}

  BreakerState breaker_state() const { return state_; }

 private:
  void enter_state(BreakerState state);
  void record_outcome(bool delivered, SimTime sim_now);

  const Router* server_;
  NetworkConditions conditions_;
  Rng rng_;
  std::string instance_;  ///< registry label isolating this client's series
  // Pre-resolved metric handles (telemetry/metrics.hpp): send() records
  // through these so the per-attempt hot path is one relaxed atomic add,
  // never a registry map lookup. Handles revalidate after registry reset.
  telemetry::CounterHandle requests_;
  telemetry::CounterHandle failures_;
  telemetry::CounterHandle retries_;
  telemetry::CounterHandle bytes_sent_;
  telemetry::CounterHandle latency_;
  telemetry::CounterHandle backoff_;
  telemetry::CounterHandle breaker_opens_;
  telemetry::CounterHandle breaker_fast_fails_;
  telemetry::GaugeHandle breaker_state_gauge_;
  telemetry::HistogramHandle request_bytes_;  ///< unlabeled: fleet-shared
  std::string token_;
  RetryPolicy retry_;
  BreakerPolicy breaker_;
  BreakerState state_ = BreakerState::Closed;
  int consecutive_failures_ = 0;
  SimTime open_until_ = 0;  ///< sim-time the open breaker admits a probe
};

}  // namespace pmware::net

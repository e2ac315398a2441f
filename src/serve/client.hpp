// Client side of the clara-serve/1 protocol: connect to a clarad
// socket, send Request lines, read Response lines. Used by the CLI's
// --connect mode and the serve load generator.
//
// Resilience (docs/robustness.md "Serve resilience"): ClientOptions
// carries connect/send/recv timeouts so a wedged server surfaces as a
// typed kInternal error instead of a hang, and call_with_retry() wraps
// call() in a bounded retry loop — reconnecting on transport errors,
// honoring the server's retry_after_ms hint on kOverloaded, and
// backing off exponentially with deterministic seeded jitter (a pure
// function of the retry seed, request id, and attempt index, so a
// chaos run's retry schedule reproduces bit-identically). Each retry
// re-sends under a derived wire id ("<id>~r<attempt>") so seeded
// per-request fault sites key differently per attempt and a fault that
// killed attempt 0 does not deterministically kill every retry too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "core/request.hpp"

namespace clara::serve {

struct ClientOptions {
  /// Socket-level timeouts, all in milliseconds; 0 = block forever.
  double connect_timeout_ms = 0.0;
  double send_timeout_ms = 0.0;
  double recv_timeout_ms = 0.0;
};

struct RetryOptions {
  /// Total attempts including the first (>= 1).
  std::size_t max_attempts = 4;
  double base_backoff_ms = 1.0;
  double max_backoff_ms = 200.0;
  /// Seed of the deterministic jitter stream.
  std::uint64_t seed = 42;
};

/// Per-call accounting filled by call_with_retry.
struct RetryStats {
  std::size_t retries = 0;     // attempts beyond the first
  std::size_t reconnects = 0;  // transport-level reconnections
  std::size_t overloaded = 0;  // kOverloaded responses retried
};

/// The backoff before retry `attempt` (1-based) of request `id`:
/// exponential from base_backoff_ms capped at max_backoff_ms — or the
/// server's retry_after_ms hint when given — times a deterministic
/// jitter factor in [0.5, 1.0) drawn from (seed, id, attempt). Pure
/// function; exposed for tests.
double retry_backoff_ms(const RetryOptions& options, std::string_view id, std::size_t attempt,
                        double retry_after_hint_ms);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and consumes the server's hello line (validating the
  /// protocol version). Errors carry kInternal with errno text, or
  /// kParse when the server speaks a different protocol; a server
  /// rejecting the connection (connection limit, draining) surfaces as
  /// the typed error of its ok=false hello — typically kOverloaded.
  static Result<Client> connect(const std::string& socket_path, ClientOptions options = {});

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Writes one request line. Does not wait for the response — requests
  /// may be pipelined; responses carry the request id.
  Status send(const core::Request& request);

  /// Reads the next response line (whatever request it answers).
  Result<core::Response> read_response();

  /// send() + read until the response matching request.id arrives.
  /// Responses to other in-flight ids read along the way are discarded,
  /// so interleave call() with explicit pipelining carefully.
  Result<core::Response> call(const core::Request& request);

  /// call() hardened for a hostile transport: bounded retries with
  /// deterministic backoff, reconnection (to the socket path this
  /// client was connected to) on kInternal transport errors, and
  /// retry-on-kOverloaded honoring the server's retry_after_ms hint.
  /// Returns the final response (any typed server error other than
  /// kOverloaded is NOT retried — it would fail identically), or the
  /// last transport error once attempts are exhausted.
  Result<core::Response> call_with_retry(const core::Request& request,
                                         const RetryOptions& retry = {},
                                         RetryStats* stats = nullptr);

  void close();

 private:
  /// The length of the next response line, received into buffer_ until
  /// its '\n' is there; the line starts at buffer_[0].
  Result<std::size_t> read_line();
  Status send_bytes(std::string_view data);

  int fd_ = -1;
  std::string buffer_;
  std::string path_;       // reconnect target for call_with_retry
  ClientOptions options_;
};

}  // namespace clara::serve

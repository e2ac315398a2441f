// clarad's engine: a JSON-lines analysis server on a Unix-domain socket.
//
// Protocol (docs/api.md "Wire protocol", version clara-serve/1): the
// server accepts SOCK_STREAM connections on a filesystem socket; on
// connect it writes one hello line (a Response with kind "hello"), then
// reads one JSON request object per line and writes one JSON response
// object per line. Requests on a connection are independent and may be
// pipelined, and responses are written as they complete — possibly out
// of order, which is why every request carries a client-chosen id that
// the response echoes.
//
// Dispatch (serve/dispatch{path=reader|pool}): a request is answered on
// the reader thread that read it when the daemon has no other request
// dispatched and unanswered and no byte waits behind its line, neither
// in the reader's buffer nor in the socket; every other request goes to
// the shared work-stealing pool (parallel::pool) as it arrives. So a
// lone client's round trip wakes no pool worker, while pipelined bursts
// and concurrent clients fan out over the pool, and at most --jobs
// requests execute at once (the pool's workers plus one reader). A
// reader answering a request reads nothing meanwhile: on an idle daemon,
// a request that reaches the socket after the one before it was taken
// up waits for that answer and cannot overtake it. At --jobs=1 the pool
// has no workers and every request is answered on its reader, serially
// per connection.
//
// Hostile-client hardening (docs/robustness.md "Serve resilience"):
// per-connection limits close abusive peers with a typed response
// first — an oversized or newline-less line is a kParse close, a
// connection beyond max_connections is a kOverloaded hello, a peer
// that stalls mid-line past read_deadline_ms is timed out. The accept
// loop classifies errno: transient fd-pressure failures (EMFILE,
// ENFILE, ECONNABORTED, ENOMEM) back off exponentially and retry
// (serve/accept_retries) instead of silently killing the listener.
// Four seeded fault sites (serve/torn_write, serve/conn_reset,
// serve/accept_fail, serve/slow_read) make all of this reproducible
// chaos-test input.
//
// Threading: one accept thread, one reader thread per connection that
// also answers requests that arrive at an idle daemon, the pool for the
// rest. A per-connection write mutex keeps response lines intact; a
// reader waits for its connection's pooled requests, without running
// them, before it closes the socket. Finished connection threads are
// reaped by the accept loop as it iterates, so a long-lived daemon does
// not accumulate one std::thread per connection ever served. stop() drains
// with a bounded deadline: after drain_deadline_ms it force-closes the
// remaining sockets so a stalled client cannot hang shutdown; the
// destructor calls it. begin_drain() stops accepting and answers new
// requests with kOverloaded ("draining") while live connections finish.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "serve/service.hpp"

namespace clara::serve {

struct DaemonOptions {
  /// Filesystem path to bind (must fit sockaddr_un; an existing socket
  /// file at the path is replaced).
  std::string socket_path;
  /// Admission-control cap forwarded to the Service (0 = unlimited).
  std::size_t max_inflight = 64;
  /// Longest request line accepted; a longer line gets a typed kParse
  /// response and the connection is closed (0 = unlimited).
  std::size_t max_line_bytes = 1u << 20;  // 1 MiB
  /// Cap on the per-connection read buffer — a peer streaming bytes
  /// without a newline is cut off here with a typed kParse response
  /// (0 = unlimited). Effectively bounds per-connection memory.
  std::size_t max_buffer_bytes = 2u << 20;  // 2 MiB
  /// Concurrent-connection cap; beyond it a new peer receives one
  /// kOverloaded hello line and is closed (0 = unlimited).
  std::size_t max_connections = 0;
  /// Deadline for completing a request line once its first byte arrived:
  /// a peer that stalls mid-line longer than this is closed with a typed
  /// kParse response (slow-loris defense). Also bounds blocked response
  /// writes to a peer that stopped reading. 0 = no deadline.
  double read_deadline_ms = 0.0;
  /// Backoff hint stamped on kOverloaded rejections (admission gate,
  /// connection limit, draining).
  double retry_after_ms = 5.0;
  /// How long stop() waits for live connections to finish before
  /// force-closing their sockets (0 = force-close immediately).
  double drain_deadline_ms = 2000.0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, and spawns the accept thread. Errors (path too
  /// long, bind failure) report kInternal with errno text.
  Status start();

  /// Stops accepting new connections and switches live connections to
  /// draining: every further request line is answered with kOverloaded
  /// ("draining") instead of being dispatched. Idempotent; stop()
  /// implies it.
  void begin_drain();

  /// Drains and shuts down: stops accepting, waits up to
  /// drain_deadline_ms for in-flight connections, force-closes the
  /// stragglers, joins all threads, removes the socket file. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const { return options_.socket_path; }
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }
  [[nodiscard]] bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Connections accepted over the daemon's lifetime.
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Currently-open connections.
  [[nodiscard]] std::size_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  /// Connection slots (thread objects) still tracked — finished slots
  /// are reaped by the accept loop, so this stays near
  /// open_connections() rather than growing with connections_accepted().
  [[nodiscard]] std::size_t tracked_connections();
  /// Transient accept() failures survived (serve/accept_retries).
  [[nodiscard]] std::uint64_t accept_retries() const {
    return accept_retries_.load(std::memory_order_relaxed);
  }

 private:
  /// One live connection: its socket, reader thread, and a done flag the
  /// reaper keys on. fd transitions to -1 (under mu_) exactly once, when
  /// the owning thread closes it; done flips last, after which the
  /// thread never touches the slot again.
  struct Conn {
    std::atomic<int> fd{-1};
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(Conn* conn);
  /// Joins and discards connection slots whose threads have finished.
  void reap_finished();

  DaemonOptions options_;
  Service service_;
  // Atomic: stop() invalidates it concurrently with accept_loop()'s read.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::size_t> open_conns_{0};
  /// Requests dispatched (to a reader or the pool) whose response is not
  /// made yet; a reader answers a request itself only when this is 0.
  std::atomic<std::size_t> dispatched_{0};
  std::thread accept_thread_;
  std::mutex mu_;  // guards conns_ (slot list) and fd close transitions
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace clara::serve

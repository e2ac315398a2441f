#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace clara::serve {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

/// Writes the whole buffer, riding out EINTR and partial sends.
/// MSG_NOSIGNAL: a client that hung up must surface as an error here,
/// not as a process-wide SIGPIPE. With deadline_ms > 0 each stalled
/// send polls for writability and gives up once the budget is spent,
/// so a peer that stopped reading cannot pin the thread forever.
bool send_all(int fd, std::string_view data, double deadline_ms) {
  const auto start = Clock::now();
  std::size_t sent = 0;
  while (sent < data.size()) {
    const int flags = MSG_NOSIGNAL | (deadline_ms > 0.0 ? MSG_DONTWAIT : 0);
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (deadline_ms > 0.0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const double remaining = deadline_ms - elapsed_ms(start);
        if (remaining <= 0.0) return false;
        pollfd pfd{fd, POLLOUT, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining)));
        if (pr < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Whether the socket holds bytes not read yet (or has hung up), without
/// waiting.
bool bytes_waiting(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

core::Response hello_response() {
  core::Response hello;
  hello.id = "clarad";
  hello.kind = core::RequestKind::kHello;
  hello.ok = true;
  return hello;
}

/// Salvages the request id from the raw JSON when the document parses
/// as an object at all — and from a lightweight scan when it does not
/// (a truncated slow-loris line is not parseable, but its "id" field
/// usually is), so even a reject carries the client's correlation tag.
/// The scan is best-effort: ids containing escapes are skipped rather
/// than mis-unescaped.
std::string salvage_id(const std::string& line) {
  if (auto doc = Json::parse(line); doc && doc.value().is_object()) {
    return doc.value().string_at("id");
  }
  const auto key = line.find("\"id\"");
  if (key == std::string::npos) return {};
  auto pos = line.find_first_not_of(" \t", key + 4);
  if (pos == std::string::npos || line[pos] != ':') return {};
  pos = line.find_first_not_of(" \t", pos + 1);
  if (pos == std::string::npos || line[pos] != '"') return {};
  const auto open = pos + 1;
  const auto close = line.find('"', open);
  if (close == std::string::npos) return {};
  const std::string id = line.substr(open, close - open);
  return id.find('\\') == std::string::npos ? id : std::string{};
}

/// Parses one request line; a malformed line still gets a well-formed
/// kParse response.
core::Response respond_parse_error(const std::string& line, const Error& error) {
  core::Request salvage;
  salvage.id = salvage_id(line);
  return core::error_response(salvage, error.code, error.message);
}

/// Shared mutable state of one connection, owned jointly by the reader
/// and its in-flight pool tasks. `dead` flips when a response write
/// fails (or a fault kills the socket); every later pipelined task for
/// the connection aborts instead of writing into a broken pipe.
struct ConnShared {
  std::mutex write_mu;
  std::atomic<bool> dead{false};
  int fd = -1;
  // Requests handed to the pool and not yet finished; the reader waits
  // for none before it closes the socket.
  std::mutex pooled_mu;
  std::condition_variable pooled_done;
  std::size_t pooled = 0;
};

bool transient_accept_errno(int err) {
  return err == EMFILE || err == ENFILE || err == ECONNABORTED || err == ENOMEM ||
         err == EAGAIN || err == EWOULDBLOCK;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      service_(ServiceOptions{options_.max_inflight, options_.retry_after_ms}) {}

Daemon::~Daemon() { stop(); }

Status Daemon::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() || options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return make_error(ErrorCode::kParse,
                      strf("socket path must be 1..%zu bytes (got %zu)", sizeof(addr.sun_path) - 1,
                           options_.socket_path.size()));
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal, strf("socket: %s", std::strerror(errno)));
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return make_error(ErrorCode::kInternal,
                      strf("bind %s: %s", options_.socket_path.c_str(), std::strerror(err)));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    return make_error(ErrorCode::kInternal, strf("listen: %s", std::strerror(err)));
  }
  listen_fd_.store(fd, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return {};
}

void Daemon::begin_drain() {
  draining_.store(true, std::memory_order_release);
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void Daemon::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  begin_drain();
  if (accept_thread_.joinable()) accept_thread_.join();

  // Politely stop the readers: half-close so buffered pipelined work
  // still drains and responses still flow out.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : conns_) {
      if (const int fd = conn->fd.load(std::memory_order_acquire); fd >= 0) {
        ::shutdown(fd, SHUT_RD);
      }
    }
  }
  // Bounded drain: a stalled client (blocked send, wedged reader) must
  // not hang shutdown, so after the deadline the remaining sockets are
  // force-closed in both directions and the joins below finish.
  const auto drain_start = Clock::now();
  while (true) {
    bool all_done = true;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : conns_) {
        if (!conn->done.load(std::memory_order_acquire)) {
          all_done = false;
          break;
        }
      }
    }
    if (all_done) break;
    if (elapsed_ms(drain_start) >= options_.drain_deadline_ms) {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : conns_) {
        if (conn->done.load(std::memory_order_acquire)) continue;
        if (const int fd = conn->fd.load(std::memory_order_acquire); fd >= 0) {
          ::shutdown(fd, SHUT_RDWR);
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<std::unique_ptr<Conn>> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    all.swap(conns_);
  }
  for (auto& conn : all) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  ::unlink(options_.socket_path.c_str());
}

std::size_t Daemon::tracked_connections() {
  const std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

void Daemon::reap_finished() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Daemon::accept_loop() {
  // Transient-failure backoff: EMFILE and friends mean "out of fds
  // right now", not "stop serving forever" — sleep, let connections
  // close, try again. Any accept success resets the backoff.
  int backoff_ms = 1;
  constexpr int kMaxBackoffMs = 100;
  std::uint64_t accept_ordinal = 0;  // deterministic serve/accept_fail key
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_finished();
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;  // begin_drain()/stop() invalidated the listener
    int fd = -1;
    int err = 0;
    if (fault::active() && fault::inject("serve/accept_fail", accept_ordinal)) {
      err = EMFILE;  // injected transient fd-pressure failure
    } else {
      fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) err = errno;
    }
    ++accept_ordinal;
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (err == EINTR) continue;
      if (transient_accept_errno(err)) {
        accept_retries_.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("serve/accept_retries").inc();
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
        continue;
      }
      break;  // listener shut down or unrecoverable (EBADF, EINVAL, ...)
    }
    backoff_ms = 1;
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve/connections").inc();
    if (options_.max_connections > 0 &&
        open_conns_.load(std::memory_order_acquire) >= options_.max_connections) {
      // Typed rejection instead of a silent close: one kOverloaded
      // hello line tells the client why and when to come back.
      core::Response reject = hello_response();
      reject.ok = false;
      reject.error_code = ErrorCode::kOverloaded;
      reject.error = strf("connection limit reached (%zu); retry", options_.max_connections);
      reject.retry_after_ms = options_.retry_after_ms;
      send_all(fd, reject.to_line(), 1000.0);
      ::close(fd);
      obs::metrics().counter("serve/conn_limit_rejects").inc();
      continue;
    }
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd.store(fd, std::memory_order_release);
    conn->thread = std::thread([this, conn] { serve_connection(conn); });
  }
}

void Daemon::serve_connection(Conn* conn) {
  const int fd = conn->fd.load(std::memory_order_acquire);
  // Response writes share the read deadline as their stall budget; with
  // no deadline configured they block (and stop()'s force-close is the
  // backstop).
  const double write_deadline = options_.read_deadline_ms;
  auto shared = std::make_shared<ConnShared>();
  shared->fd = fd;
  {
    const std::lock_guard<std::mutex> lock(shared->write_mu);
    send_all(fd, hello_response().to_line(), write_deadline);
  }

  // Serializes a response onto the wire under the connection's write
  // mutex. serve/torn_write splits the line and delays the second half
  // (exercising client reassembly); a failed write marks the connection
  // dead so the remaining pipelined work aborts instead of piling onto
  // a broken pipe.
  auto write_response = [this, shared, write_deadline](const core::Response& response,
                                                       std::uint64_t key) {
    const std::string out = response.to_line();
    const std::lock_guard<std::mutex> lock(shared->write_mu);
    if (shared->dead.load(std::memory_order_acquire)) return;
    bool sent = false;
    if (out.size() >= 2 && fault::active() && fault::inject("serve/torn_write", key)) {
      const std::size_t half = out.size() / 2;
      sent = send_all(shared->fd, std::string_view(out).substr(0, half), write_deadline);
      if (sent) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        sent = send_all(shared->fd, std::string_view(out).substr(half), write_deadline);
      }
    } else {
      sent = send_all(shared->fd, out, write_deadline);
    }
    if (!sent) {
      shared->dead.store(true, std::memory_order_release);
      obs::metrics().counter("serve/write_errors").inc();
      ::shutdown(shared->fd, SHUT_RD);  // wake the reader so it can wind down
    }
  };

  // Answers one dispatched request line and writes the response, on the
  // calling thread. The request stops counting as dispatched once its
  // response is made, before the client can see it. Once the connection
  // is dead the line is abandoned; under serve/conn_reset the response
  // is dropped and the socket killed (a mid-pipeline reset: the client
  // sees EOF and, with retries, re-asks).
  auto respond = [this, shared, write_response](const std::string& line) {
    if (shared->dead.load(std::memory_order_acquire)) {
      dispatched_.fetch_sub(1, std::memory_order_acq_rel);
      obs::metrics().counter("serve/aborted_requests").inc();
      return;
    }
    auto request = core::Request::from_json(line);
    const std::string rid = request ? request.value().id : salvage_id(line);
    const std::uint64_t key = Fnv1a().mix(rid).digest();
    const core::Response response = request ? service_.handle(request.value())
                                            : respond_parse_error(line, request.error());
    dispatched_.fetch_sub(1, std::memory_order_acq_rel);
    if (fault::active() && fault::inject("serve/conn_reset", key)) {
      shared->dead.store(true, std::memory_order_release);
      obs::metrics().counter("serve/conn_resets").inc();
      ::shutdown(shared->fd, SHUT_RDWR);
      return;
    }
    write_response(response, key);
  };

  // Answers a protocol violation (oversized line, read timeout) with a
  // typed response before the close, so abusive peers still get one
  // well-formed line explaining the cut.
  auto close_with_error = [&write_response](const std::string& line, ErrorCode code,
                                            std::string message) {
    core::Request salvage;
    salvage.id = salvage_id(line);
    write_response(core::error_response(salvage, code, std::move(message)), 0);
  };

  // Only a pool with workers takes posted requests; with none every
  // request is answered here, serially.
  const bool has_workers = parallel::pool().workers() > 0;
  static auto& reader_path = obs::metrics().counter("serve/dispatch", "path=reader");
  static auto& pool_path = obs::metrics().counter("serve/dispatch", "path=pool");
  static auto& queue_us = obs::metrics().histogram("serve/queue_us");
  std::string buffer;
  char chunk[4096];
  bool open = true;
  bool partial = false;              // buffer holds an incomplete line
  auto line_start = Clock::now();    // when that line's first byte arrived
  while (open && !shared->dead.load(std::memory_order_acquire)) {
    // Deadline measured from the first byte of the pending line, not
    // from the last byte received — a slow-loris drip cannot keep
    // resetting it.
    int timeout = -1;
    if (options_.read_deadline_ms > 0.0 && partial) {
      const double remaining = options_.read_deadline_ms - elapsed_ms(line_start);
      if (remaining <= 0.0) {
        obs::metrics().counter("serve/read_timeouts").inc();
        close_with_error(buffer, ErrorCode::kParse,
                         strf("read deadline expired mid-request (%.0f ms)",
                              options_.read_deadline_ms));
        break;
      }
      timeout = static_cast<int>(std::ceil(remaining));
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // re-check the deadline at the top
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) break;
    if (buffer.empty()) line_start = Clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (trim(line).empty()) continue;
      if (options_.max_line_bytes > 0 && line.size() > options_.max_line_bytes) {
        obs::metrics().counter("serve/line_limit_closes").inc();
        close_with_error(line, ErrorCode::kParse,
                         strf("request line too large (%zu bytes, limit %zu)", line.size(),
                              options_.max_line_bytes));
        open = false;
        break;
      }
      if (draining_.load(std::memory_order_acquire)) {
        // Drain: acknowledge without dispatching, so clients fail over
        // instead of waiting on a server that is going away.
        obs::metrics().counter("serve/draining_rejects").inc();
        core::Request salvage;
        salvage.id = salvage_id(line);
        core::Response reject =
            core::error_response(salvage, ErrorCode::kOverloaded, "server draining; retry");
        reject.retry_after_ms = options_.retry_after_ms;
        write_response(reject, 0);
        continue;
      }
      // The reader answers the line itself when nothing else is
      // dispatched and no byte waits behind the line, read or still in
      // the socket: waking a worker would only add its wake-up to the
      // round trip. A reader busy answering reads nothing, so a line
      // with more behind it, or any line while others are in flight,
      // goes to the pool. The count is read before the socket is polled
      // so that loaded traffic pays no extra syscall.
      std::size_t idle = 0;
      if (!has_workers) {
        dispatched_.fetch_add(1, std::memory_order_acq_rel);
      } else if (start < buffer.size() || dispatched_.load(std::memory_order_acquire) != 0 ||
                 bytes_waiting(fd) ||
                 !dispatched_.compare_exchange_strong(idle, 1, std::memory_order_acq_rel)) {
        dispatched_.fetch_add(1, std::memory_order_acq_rel);
        pool_path.inc();
        {
          const std::lock_guard<std::mutex> lock(shared->pooled_mu);
          ++shared->pooled;
        }
        parallel::post([shared, respond, line = std::move(line), queued = Clock::now()] {
          queue_us.observe(
              std::chrono::duration<double, std::micro>(Clock::now() - queued).count());
          respond(line);
          // Last: once the reader sees no pooled request it may close the
          // socket and the daemon may go away.
          const std::lock_guard<std::mutex> lock(shared->pooled_mu);
          if (--shared->pooled == 0) shared->pooled_done.notify_all();
        });
        continue;
      }
      reader_path.inc();
      respond(line);
    }
    buffer.erase(0, start);
    if (buffer.empty()) {
      partial = false;
    } else {
      if (!partial) {
        partial = true;
        line_start = Clock::now();
      }
      const std::size_t cap =
          options_.max_buffer_bytes > 0 ? options_.max_buffer_bytes : options_.max_line_bytes;
      if (cap > 0 && buffer.size() > cap) {
        // Newline-less flood: the partial line already exceeds what any
        // request could legitimately need.
        obs::metrics().counter("serve/line_limit_closes").inc();
        close_with_error("", ErrorCode::kParse,
                         strf("request exceeds %zu bytes without a newline", cap));
        break;
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared->pooled_mu);
    shared->pooled_done.wait(lock, [&shared] { return shared->pooled == 0; });
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ::close(fd);
    conn->fd.store(-1, std::memory_order_release);
  }
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace clara::serve

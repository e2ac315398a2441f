#include "serve/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace clara::serve {

namespace {

timeval to_timeval(double ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>((ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;  // 0 would mean "no timeout"
  return tv;
}

bool is_timeout_errno(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

double retry_backoff_ms(const RetryOptions& options, std::string_view id, std::size_t attempt,
                        double retry_after_hint_ms) {
  double base = retry_after_hint_ms;
  if (base <= 0.0) {
    const std::size_t shift = attempt > 0 ? std::min<std::size_t>(attempt - 1, 16) : 0;
    base = std::min(options.max_backoff_ms,
                    options.base_backoff_ms * static_cast<double>(std::uint64_t{1} << shift));
  }
  // Deterministic jitter: a splitmix64 draw from (seed, id, attempt)
  // mapped into [0.5, 1.0). No global RNG, no clock — a chaos run's
  // retry schedule is a pure function of its inputs.
  const std::uint64_t draw =
      parallel::shard_seed(options.seed ^ Fnv1a().mix(id).digest(), attempt);
  const double fraction = static_cast<double>(draw >> 11) * 0x1.0p-53;
  return base * (0.5 + 0.5 * fraction);
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      path_(std::move(other.path_)),
      options_(other.options_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    path_ = std::move(other.path_);
    options_ = other.options_;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<Client> Client::connect(const std::string& socket_path, ClientOptions options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return make_error(ErrorCode::kParse, strf("socket path too long: %s", socket_path.c_str()));
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  Client client;
  client.path_ = socket_path;
  client.options_ = options;
  client.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (client.fd_ < 0) {
    return make_error(ErrorCode::kInternal, strf("socket: %s", std::strerror(errno)));
  }
  if (options.connect_timeout_ms > 0.0) {
    // Non-blocking connect + poll, then back to blocking: the only
    // portable way to bound connect() itself.
    const int flags = ::fcntl(client.fd_, F_GETFL, 0);
    ::fcntl(client.fd_, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(client.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
      return make_error(ErrorCode::kInternal,
                        strf("connect %s: %s", socket_path.c_str(), std::strerror(errno)));
    }
    if (rc != 0) {
      pollfd pfd{client.fd_, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(std::ceil(options.connect_timeout_ms)));
      if (pr <= 0) {
        return make_error(ErrorCode::kInternal,
                          strf("connect %s: timed out after %.0f ms", socket_path.c_str(),
                               options.connect_timeout_ms));
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(client.fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        return make_error(ErrorCode::kInternal,
                          strf("connect %s: %s", socket_path.c_str(), std::strerror(err)));
      }
    }
    ::fcntl(client.fd_, F_SETFL, flags);
  } else if (::connect(client.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return make_error(ErrorCode::kInternal,
                      strf("connect %s: %s", socket_path.c_str(), std::strerror(errno)));
  }
  if (options.recv_timeout_ms > 0.0) {
    const timeval tv = to_timeval(options.recv_timeout_ms);
    ::setsockopt(client.fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (options.send_timeout_ms > 0.0) {
    const timeval tv = to_timeval(options.send_timeout_ms);
    ::setsockopt(client.fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  auto hello = client.read_response();
  if (!hello) return hello.error();
  if (hello.value().kind != core::RequestKind::kHello) {
    return make_error(ErrorCode::kParse, "server did not send a hello line");
  }
  if (!hello.value().ok) {
    // Typed connection rejection (connection limit, draining).
    Error error = make_error(hello.value().error_code, hello.value().error);
    error.message += strf(" (retry_after_ms=%.0f)", hello.value().retry_after_ms);
    return error;
  }
  return client;
}

Status Client::send_bytes(std::string_view data) {
  if (fd_ < 0) return make_error(ErrorCode::kInternal, "client is not connected");
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_timeout_errno(errno)) {
        return make_error(ErrorCode::kInternal,
                          strf("send: timed out after %.0f ms", options_.send_timeout_ms));
      }
      return make_error(ErrorCode::kInternal, strf("send: %s", std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
  return {};
}

Status Client::send(const core::Request& request) { return send_bytes(request.to_line()); }

Result<std::size_t> Client::read_line() {
  if (fd_ < 0) return make_error(ErrorCode::kInternal, "client is not connected");
  std::size_t scanned = 0;  // leading bytes known to hold no '\n'
  while (true) {
    if (const auto nl = buffer_.find('\n', scanned); nl != std::string::npos) return nl;
    scanned = buffer_.size();
    constexpr std::size_t kChunk = 4096;
    buffer_.resize(scanned + kChunk);
    const ssize_t n = ::recv(fd_, buffer_.data() + scanned, kChunk, 0);
    const int err = errno;
    buffer_.resize(scanned + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n < 0) {
      if (err == EINTR) continue;
      if (is_timeout_errno(err)) {
        return make_error(ErrorCode::kInternal,
                          strf("recv: timed out after %.0f ms", options_.recv_timeout_ms));
      }
      return make_error(ErrorCode::kInternal, strf("recv: %s", std::strerror(err)));
    }
    if (n == 0) {
      return make_error(ErrorCode::kInternal, "server closed the connection");
    }
  }
}

Result<core::Response> Client::read_response() {
  const auto length = read_line();
  if (!length) return length.error();
  auto response = core::Response::from_json(std::string_view(buffer_).substr(0, length.value()));
  buffer_.erase(0, length.value() + 1);
  return response;
}

Result<core::Response> Client::call(const core::Request& request) {
  if (auto status = send(request); !status) return status.error();
  while (true) {
    auto response = read_response();
    if (!response) return response;
    if (response.value().id == request.id) return response;
  }
}

Result<core::Response> Client::call_with_retry(const core::Request& request,
                                               const RetryOptions& retry, RetryStats* stats) {
  const std::size_t max_attempts = std::max<std::size_t>(1, retry.max_attempts);
  Error last = make_error(ErrorCode::kInternal, "no attempts made");
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    core::Request wire = request;
    if (attempt > 0) {
      // Derived id per retry: seeded per-request fault sites key on the
      // wire id, so the retry must not replay the exact fault that
      // killed the previous attempt.
      wire.id = strf("%s~r%zu", request.id.c_str(), attempt);
      if (stats != nullptr) ++stats->retries;
      obs::metrics().counter("serve_client/retries").inc();
    }
    if (!connected()) {
      auto fresh = Client::connect(path_, options_);
      if (!fresh) {
        last = fresh.error();
        if (attempt + 1 < max_attempts) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              retry_backoff_ms(retry, wire.id, attempt + 1, 0.0)));
        }
        continue;
      }
      *this = std::move(fresh).value();
      if (stats != nullptr) ++stats->reconnects;
      obs::metrics().counter("serve_client/reconnects").inc();
    }

    const std::string line = wire.to_line();
    Status sent;
    if (fault::active() && fault::inject("serve/slow_read", Fnv1a().mix(wire.id).digest())) {
      // Chaos: stall mid-line past the server's read deadline (the stall
      // length rides in the site's factor=). The server cuts us off with
      // a typed response; the next attempt reconnects.
      const double stall_ms = fault::site_factor("serve/slow_read", 50.0);
      const std::size_t half = line.size() / 2;
      sent = send_bytes(std::string_view(line).substr(0, half));
      if (sent) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(stall_ms));
        sent = send_bytes(std::string_view(line).substr(half));
      }
    } else {
      sent = send_bytes(line);
    }
    if (!sent) {
      last = sent.error();
      close();
      continue;
    }

    Result<core::Response> response = make_error(ErrorCode::kInternal, "unread");
    while (true) {
      response = read_response();
      if (!response || response.value().id == wire.id) break;
    }
    if (!response) {
      last = response.error();
      close();
      continue;
    }
    if (!response.value().ok && response.value().error_code == ErrorCode::kOverloaded &&
        attempt + 1 < max_attempts) {
      if (stats != nullptr) ++stats->overloaded;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(retry_backoff_ms(
          retry, wire.id, attempt + 1, response.value().retry_after_ms)));
      continue;  // connection is healthy; only the server was busy
    }
    return response;
  }
  return last;
}

}  // namespace clara::serve

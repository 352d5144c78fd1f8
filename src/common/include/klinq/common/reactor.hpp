// One listen socket and one poll thread, shared by obs::http_server and
// net::tcp_front_end; the protocol side plugs in as the reactor's owner.
// Each round the thread polls the wake pipe, the listen socket and the
// owner's connection pollfds (collect), for at most the poll interval; hands
// those pollfds back with their revents (on_ready); accepts until EAGAIN,
// passing each fd — non-blocking, TCP_NODELAY — to the owner, which then
// owns and closes it (on_accept); and makes one deadline call (on_tick).
// Every hook runs on the poll thread. wake() may be called from any thread;
// stop() wakes and joins the thread, so no hook runs after it returns.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace klinq {

struct host_port {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port" or a bare "port"; a bare port or an empty host keeps
/// `default_host`. Throws invalid_argument_error, prefixed with `what`, on a
/// missing, non-decimal or out-of-range port.
host_port parse_host_port(std::string_view what, std::string_view spec,
                          std::string default_host);

class reactor {
 public:
  class owner {
   public:
    virtual ~owner() = default;
    virtual void collect(std::vector<pollfd>& fds) = 0;
    virtual void on_ready(std::span<const pollfd> fds) = 0;
    virtual void on_accept(int fd) = 0;
    virtual void on_tick() = 0;
  };

  /// Binds and listens on IPv4 `host`:`port` (0 = ephemeral). Throws
  /// invalid_argument_error when `host` is not an IPv4 address and io_error
  /// when socket/bind/listen fails, each prefixed with `what`.
  reactor(std::string_view what, const std::string& host, std::uint16_t port,
          int backlog);
  /// stop(), then closes the listen socket and the wake pipe.
  ~reactor();

  reactor(const reactor&) = delete;
  reactor& operator=(const reactor&) = delete;

  void start(owner& owner, double interval_seconds);
  std::uint16_t port() const noexcept { return port_; }
  void wake() noexcept;
  /// Idempotent.
  void stop();

 private:
  void run(owner& owner, int timeout_ms);

  int listen_fd_ = -1;
  int wake_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace klinq

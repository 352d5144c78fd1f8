#include "klinq/obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "klinq/common/env.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/reactor.hpp"

namespace klinq::obs {

namespace {

constexpr std::string_view kCrlfCrlf = "\r\n\r\n";

const char* reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_response(const http_response& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason_phrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

double now_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

http_config http_config::from_env() {
  http_config config;
  config.bind_address = env_string("KLINQ_HTTP", "");
  return config;
}

struct http_server::impl : reactor::owner {
  http_config config;
  host_port bind;
  bool stopped = false;
  std::mutex stop_mutex;

  std::mutex handler_mutex;
  std::map<std::string,
           std::function<http_response(const http_request&)>> handlers;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> not_found{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> over_capacity{0};
  std::atomic<std::uint64_t> evicted{0};

  struct connection {
    int fd = -1;
    std::string read_buffer;
    std::string write_buffer;
    std::size_t write_offset = 0;
    double deadline = 0.0;    // the whole exchange, read and write
    bool responding = false;  // request parsed; draining write_buffer
  };
  std::vector<connection> conns;  // poll thread only (stop() after join)
  reactor loop;  // last: its thread uses every member above

  explicit impl(http_config cfg)
      : config(std::move(cfg)),
        bind(parse_host_port("http_server", config.bind_address,
                             "127.0.0.1")),
        loop("http_server", bind.host, bind.port, 16) {}

  void collect(std::vector<pollfd>& fds) override;
  void on_ready(std::span<const pollfd> fds) override;
  void on_accept(int fd) override;
  void on_tick() override;
  void handle_readable(connection& conn);
  void flush(connection& conn);
  void respond(connection& conn, const http_response& response);
  http_response dispatch(const std::string& request_text, bool& routed);
};

http_server::http_server(http_config config) {
  KLINQ_REQUIRE(!config.bind_address.empty(),
                "http_server: bind address must be non-empty");
  KLINQ_REQUIRE(config.max_connections > 0 && config.max_request_bytes > 0,
                "http_server: limits must be positive");
  impl_ = std::make_unique<impl>(std::move(config));
  impl_->loop.start(*impl_, 0.1);
}

http_server::~http_server() { stop(); }

void http_server::add_handler(
    std::string path,
    std::function<http_response(const http_request&)> handler) {
  const std::lock_guard lock(impl_->handler_mutex);
  impl_->handlers[std::move(path)] = std::move(handler);
}

std::uint16_t http_server::port() const noexcept { return impl_->loop.port(); }

const std::string& http_server::host() const noexcept {
  return impl_->bind.host;
}

http_stats http_server::stats() const noexcept {
  http_stats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.served = impl_->served.load(std::memory_order_relaxed);
  s.not_found = impl_->not_found.load(std::memory_order_relaxed);
  s.malformed = impl_->malformed.load(std::memory_order_relaxed);
  s.over_capacity = impl_->over_capacity.load(std::memory_order_relaxed);
  s.evicted = impl_->evicted.load(std::memory_order_relaxed);
  return s;
}

void http_server::stop() {
  {
    const std::lock_guard lock(impl_->stop_mutex);
    if (impl_->stopped) return;
    impl_->stopped = true;
  }
  impl_->loop.stop();
  for (const auto& conn : impl_->conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  impl_->conns.clear();
}

http_response http_server::impl::dispatch(const std::string& request_text,
                                          bool& routed) {
  routed = false;
  const std::size_t line_end = request_text.find("\r\n");
  const std::string line = request_text.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {400, "text/plain; charset=utf-8", "bad request line\n"};
  }
  const std::string method = line.substr(0, sp1);
  if (method != "GET") {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {405, "text/plain; charset=utf-8", "GET only\n"};
  }
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {400, "text/plain; charset=utf-8", "bad target\n"};
  }
  http_request request;
  const std::size_t question = target.find('?');
  request.path = target.substr(0, question);
  if (question != std::string::npos) {
    request.query = target.substr(question + 1);
  }
  std::function<http_response(const http_request&)> handler;
  {
    const std::lock_guard lock(handler_mutex);
    const auto it = handlers.find(request.path);
    if (it != handlers.end()) handler = it->second;
  }
  if (!handler) {
    not_found.fetch_add(1, std::memory_order_relaxed);
    return {404, "text/plain; charset=utf-8", "not found\n"};
  }
  routed = true;
  try {
    return handler(request);
  } catch (const std::exception& e) {
    return {500, "text/plain; charset=utf-8",
            std::string("handler error: ") + e.what() + "\n"};
  }
}

void http_server::impl::respond(connection& conn,
                                const http_response& response) {
  conn.write_buffer = render_response(response);
  conn.write_offset = 0;
  conn.responding = true;
}

void http_server::impl::handle_readable(connection& conn) {
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.read_buffer.append(buf, static_cast<std::size_t>(n));
      if (conn.read_buffer.size() > config.max_request_bytes) {
        malformed.fetch_add(1, std::memory_order_relaxed);
        respond(conn, {431, "text/plain; charset=utf-8",
                       "request too large\n"});
        return;
      }
      const std::size_t end = conn.read_buffer.find(kCrlfCrlf);
      if (end != std::string::npos) {
        bool routed = false;
        const http_response response = dispatch(conn.read_buffer, routed);
        if (routed) served.fetch_add(1, std::memory_order_relaxed);
        respond(conn, response);
        return;
      }
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      // Peer closed (or errored) before a full request: just drop it.
      ::close(conn.fd);
      conn.fd = -1;
    }
    return;
  }
}

void http_server::impl::flush(connection& conn) {
  while (conn.write_offset < conn.write_buffer.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_offset,
               conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    break;  // peer gone: close below
  }
  ::close(conn.fd);  // Connection: close — one request per socket
  conn.fd = -1;
}

void http_server::impl::collect(std::vector<pollfd>& fds) {
  for (const connection& conn : conns) {
    const short events = conn.responding ? POLLOUT : POLLIN;
    fds.push_back({conn.fd, events, 0});
  }
}

void http_server::impl::on_ready(std::span<const pollfd> fds) {
  // fds[i] is conns[i]: connections are only appended (on_accept) and
  // erased (on_tick) after this call.
  for (std::size_t i = 0; i < fds.size(); ++i) {
    connection& conn = conns[i];
    if (!conn.responding && (fds[i].revents & (POLLIN | POLLHUP))) {
      handle_readable(conn);
    }
    if (conn.fd >= 0 && conn.responding) flush(conn);
  }
}

void http_server::impl::on_accept(int fd) {
  accepted.fetch_add(1, std::memory_order_relaxed);
  if (conns.size() >= config.max_connections) {
    // Over capacity: answer 503 best-effort and close — the shed discipline
    // of the front end, minus the queueing.
    over_capacity.fetch_add(1, std::memory_order_relaxed);
    const std::string shed = render_response(
        {503, "text/plain; charset=utf-8", "over capacity\n"});
    [[maybe_unused]] const ssize_t n =
        ::send(fd, shed.data(), shed.size(), MSG_NOSIGNAL);
    ::close(fd);
    return;
  }
  connection conn;
  conn.fd = fd;
  conn.deadline = now_seconds() + config.read_timeout_seconds;
  conns.push_back(std::move(conn));
}

void http_server::impl::on_tick() {
  // A client that stops sending its request or stops reading its response
  // loses its slot at the same deadline.
  const double now = now_seconds();
  for (connection& conn : conns) {
    if (conn.fd >= 0 && now > conn.deadline) {
      evicted.fetch_add(1, std::memory_order_relaxed);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  std::erase_if(conns, [](const connection& c) { return c.fd < 0; });
}

std::unique_ptr<http_server> start_http_from_env() {
  http_config config = http_config::from_env();
  if (config.bind_address.empty()) return nullptr;
  return std::make_unique<http_server>(config);
}

http_result http_get(const std::string& host, std::uint16_t port,
                     const std::string& target, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw io_error("http_get: socket() failed");
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_seconds);
  tv.tv_usec = static_cast<long>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw io_error("http_get: cannot connect to " + host + ":" +
                   std::to_string(port));
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw io_error("http_get: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    ::close(fd);
    throw io_error("http_get: recv failed or timed out");
  }
  ::close(fd);
  http_result result;
  const std::size_t sp = raw.find(' ');
  KLINQ_REQUIRE(sp != std::string::npos && raw.compare(0, 5, "HTTP/") == 0,
                "http_get: malformed status line");
  result.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t body = raw.find(kCrlfCrlf);
  if (body != std::string::npos) {
    result.body = raw.substr(body + kCrlfCrlf.size());
  }
  return result;
}

}  // namespace klinq::obs

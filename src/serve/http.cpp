#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <thread>

#include "serve/json.hpp"

namespace fv::serve {

namespace {

[[noreturn]] void io_fail(const char* what) {
  throw IoError(std::string("http: ") + what + ": " + std::strerror(errno));
}

/// %XX decoding for query parameter names/values ('+' is a space).
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi < 0 || lo < 0) throw ParseError("http: bad %-escape in query");
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// Parses the request line and header lines of `raw` into `request` —
/// `head_end` is the offset of the "\r\n\r\n" closing the header block —
/// and returns the body length its Content-Length header declares (0 when
/// absent). Header names are matched whole, per line, so a header VALUE
/// that happens to contain "content-length:" declares nothing.
std::size_t parse_head(std::string_view raw, std::size_t head_end,
                       HttpRequest& request) {
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string_view::npos) {
    throw ParseError("http: missing request line");
  }
  const std::string_view line = raw.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    throw ParseError("http: malformed request line");
  }
  request.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (version.substr(0, 5) != "HTTP/") {
    throw ParseError("http: bad protocol version");
  }
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    std::string_view qs = target.substr(qmark + 1);
    while (!qs.empty()) {
      const std::size_t amp = qs.find('&');
      const std::string_view pair = qs.substr(0, amp);
      const std::size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        request.query[url_decode(pair)] = "";
      } else {
        request.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
      }
      if (amp == std::string_view::npos) break;
      qs.remove_prefix(amp + 1);
    }
    target = target.substr(0, qmark);
  }
  request.path = url_decode(target);
  if (request.path.empty() || request.path[0] != '/') {
    throw ParseError("http: target must be an absolute path");
  }

  std::size_t cursor = line_end + 2;
  while (cursor < head_end) {
    const std::size_t eol = raw.find("\r\n", cursor);
    const std::string_view header = raw.substr(cursor, eol - cursor);
    const std::size_t colon = header.find(':');
    if (colon == std::string_view::npos) {
      throw ParseError("http: malformed header line");
    }
    std::string_view value = header.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    request.headers[lower(header.substr(0, colon))] = std::string(value);
    cursor = eol + 2;
  }

  const auto it = request.headers.find("content-length");
  if (it == request.headers.end()) return 0;
  char* end = nullptr;
  const auto content_length =
      static_cast<std::size_t>(std::strtoull(it->second.c_str(), &end, 10));
  if (end == it->second.c_str()) throw ParseError("http: bad Content-Length");
  return content_length;
}

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` as a poll() timeout, 0 once passed.
int poll_ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(
      std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
}

enum class ReadOutcome { kComplete, kTooLarge, kTimedOut, kClosed };

/// Reads until the buffer holds a complete request (head + declared body)
/// and parses it into `request` — the head exactly once, as soon as its
/// terminator arrives, since its Content-Length says how much body to wait
/// for. Gives up when the request outgrows `max_bytes`, when `deadline`
/// passes first, or when the peer closes early; throws ParseError on a
/// malformed head.
ReadOutcome read_request(int fd, std::size_t max_bytes,
                         Clock::time_point deadline, HttpRequest& request) {
  std::string buffer;
  char chunk[4096];
  std::size_t body_begin = std::string::npos;  ///< known once head parsed
  std::size_t body_bytes = 0;
  while (buffer.size() < max_bytes) {
    if (body_begin == std::string::npos) {
      const std::size_t head_end = buffer.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        body_bytes = parse_head(buffer, head_end, request);
        body_begin = head_end + 4;
        if (body_bytes >= max_bytes) return ReadOutcome::kTooLarge;
      }
    }
    if (body_begin != std::string::npos &&
        buffer.size() >= body_begin + body_bytes) {
      request.body = buffer.substr(body_begin, body_bytes);
      return ReadOutcome::kComplete;
    }
    const int left_ms = poll_ms_until(deadline);
    if (left_ms == 0) return ReadOutcome::kTimedOut;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left_ms);
    if (ready < 0 && errno != EINTR) return ReadOutcome::kClosed;
    if (ready <= 0) continue;  // EINTR, or the deadline check above ends it
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got == 0) return ReadOutcome::kClosed;
    if (got < 0) {
      if (errno == EINTR) continue;
      return ReadOutcome::kClosed;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  return ReadOutcome::kTooLarge;
}

/// Sends all of `bytes` unless `deadline` passes first. The deadline
/// bounds the whole response, not each send: a peer that drains a few
/// bytes at a time would otherwise keep a per-call timeout from expiring.
void write_all(int fd, std::string_view bytes, Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return;  // peer went away
    const int left_ms = poll_ms_until(deadline);
    if (left_ms == 0) return;  // peer stopped reading
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, left_ms);
  }
}

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  JsonValue body = JsonValue::object();
  body["error"] = message;
  response.body = body.dump();
  return response;
}

}  // namespace

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

HttpRequest parse_http_request(std::string_view raw, std::size_t max_bytes) {
  if (raw.size() > max_bytes) throw ParseError("http: request too large");
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    throw ParseError("http: missing header terminator");
  }
  HttpRequest request;
  const std::size_t content_length = parse_head(raw, head_end, request);
  const std::string_view body = raw.substr(head_end + 4);
  if (body.size() < content_length) {
    throw ParseError("http: body shorter than Content-Length");
  }
  request.body = std::string(body.substr(0, content_length));
  return request;
}

std::string format_http_response(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    http_status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer(Handler handler, const Options& options)
    : handler_(std::move(handler)), options_(options) {
  FV_REQUIRE(handler_ != nullptr, "HttpServer needs a handler");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) io_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    io_fail("listen");
  }
  connection_threads_.reserve(kConnectionThreads);
  for (std::size_t i = 0; i < kConnectionThreads; ++i) {
    connection_threads_.emplace_back([this] { accept_loop(); });
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  // Shutting the listening socket down fails every blocked and future
  // accept(), which is how each connection thread learns to exit once its
  // current connection is answered.
  if (!stopping_.exchange(true)) ::shutdown(listen_fd_, SHUT_RDWR);
  for (std::thread& t : connection_threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      // Out of descriptors or buffers: back off instead of spinning; the
      // other errors (a peer that reset before accept) just retry.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  const Clock::time_point read_deadline = Clock::now() + kReadDeadline;
  const auto answer = [fd](const HttpResponse& response) {
    write_all(fd, format_http_response(response),
              Clock::now() + kWriteDeadline);
  };
  HttpRequest request;
  HttpResponse response;
  try {
    switch (read_request(fd, options_.max_request_bytes, read_deadline,
                         request)) {
      case ReadOutcome::kComplete:
        response = handler_(request);
        break;
      case ReadOutcome::kTooLarge:
        answer(error_response(413, "request too large"));
        return;
      case ReadOutcome::kTimedOut:
        answer(error_response(408, "request not complete within the read "
                                   "deadline"));
        return;
      case ReadOutcome::kClosed:
        return;  // nobody is left to answer
    }
  } catch (const ParseError& error) {
    response = error_response(400, error.what());
  } catch (const std::exception& error) {
    // The handler (AnalysisService) maps typed errors itself; anything
    // that still escapes is a server bug answered as 500, never a dropped
    // connection.
    response = error_response(500, error.what());
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  answer(response);
}

std::string http_exchange(std::uint16_t port, std::string_view raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail("connect");
  }
  write_all(fd, raw_request, Clock::time_point::max());
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

}  // namespace fv::serve

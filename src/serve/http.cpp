#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>
#include <utility>

#include "support/faults.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

enum class RecvResult
{
    Ok,      ///< appended at least one byte
    Closed,  ///< EOF or hard error: the peer is gone
    TimedOut ///< SO_RCVTIMEO elapsed with no bytes (slow loris)
};

/** recv() the next chunk into @p buf. */
RecvResult
recvSome(int fd, std::string& buf)
{
    if (faults::fire("http.read.fail"))
        return RecvResult::Closed;
    char chunk[4096];
    std::size_t want = sizeof chunk;
    if (faults::fire("http.read.short"))
        want = 1; // exercise the caller's accumulate loop
    const ssize_t n = ::recv(fd, chunk, want, 0);
    if (n == 0)
        return RecvResult::Closed;
    if (n < 0)
        return (errno == EAGAIN || errno == EWOULDBLOCK)
                   ? RecvResult::TimedOut
                   : RecvResult::Closed;
    buf.append(chunk, static_cast<std::size_t>(n));
    return RecvResult::Ok;
}

/** Blocking full write; false on error (peer gone). */
bool
sendAll(int fd, std::string_view data)
{
    if (faults::fire("http.write.fail"))
        return false;
    while (!data.empty()) {
        const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

std::string
toLower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
trim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && (s[b] == ' ' || s[b] == '\t'))
        ++b;
    while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t'))
        --e;
    return std::string(s.substr(b, e - b));
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** %XX and '+' decoding; a malformed escape is kept literally. */
std::string
percentDecode(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out.push_back(' ');
        } else if (s[i] == '%' && i + 2 < s.size() &&
                   hexDigit(s[i + 1]) >= 0 && hexDigit(s[i + 2]) >= 0) {
            out.push_back(static_cast<char>(hexDigit(s[i + 1]) * 16 +
                                            hexDigit(s[i + 2])));
            i += 2;
        } else {
            out.push_back(s[i]);
        }
    }
    return out;
}

void
parseQuery(std::string_view qs, std::map<std::string, std::string>& out)
{
    while (!qs.empty()) {
        const std::size_t amp = qs.find('&');
        const std::string_view pair = qs.substr(0, amp);
        const std::size_t eq = pair.find('=');
        if (!pair.empty()) {
            if (eq == std::string_view::npos)
                out[percentDecode(pair)] = "";
            else
                out[percentDecode(pair.substr(0, eq))] =
                    percentDecode(pair.substr(eq + 1));
        }
        if (amp == std::string_view::npos)
            break;
        qs.remove_prefix(amp + 1);
    }
}

/**
 * Parse the head (request line + headers) of @p buf, which must contain
 * the terminating blank line at @p headEnd. Returns false on malformed
 * input.
 */
bool
parseHead(std::string_view head, HttpRequest& req)
{
    const std::size_t lineEnd = head.find("\r\n");
    if (lineEnd == std::string_view::npos)
        return false;
    const std::string_view line = head.substr(0, lineEnd);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos)
        return false;
    req.method = std::string(line.substr(0, sp1));
    req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = line.substr(sp2 + 1);
    if (req.method.empty() || req.target.empty() ||
        (version != "HTTP/1.1" && version != "HTTP/1.0"))
        return false;

    const std::size_t qmark = req.target.find('?');
    req.path = percentDecode(std::string_view(req.target).substr(0, qmark));
    if (qmark != std::string::npos)
        parseQuery(std::string_view(req.target).substr(qmark + 1),
                   req.query);

    std::string_view rest = head.substr(lineEnd + 2);
    while (!rest.empty()) {
        const std::size_t eol = rest.find("\r\n");
        const std::string_view hline =
            rest.substr(0, eol == std::string_view::npos ? rest.size() : eol);
        if (!hline.empty()) {
            const std::size_t colon = hline.find(':');
            if (colon == std::string_view::npos)
                return false;
            req.headers[toLower(std::string(hline.substr(0, colon)))] =
                trim(hline.substr(colon + 1));
        }
        if (eol == std::string_view::npos)
            break;
        rest.remove_prefix(eol + 2);
    }
    return true;
}

std::string
formatResponse(const HttpResponse& r, bool close)
{
    std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                      httpStatusText(r.status) + "\r\n";
    if (!r.body.empty() || r.status != 204)
        out += "Content-Type: " + r.contentType + "\r\n";
    for (const auto& [name, value] : r.headers)
        out += name + ": " + value + "\r\n";
    out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
    out += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
    out += "\r\n";
    out += r.body;
    return out;
}

} // namespace

const std::string&
HttpRequest::queryOr(const std::string& key,
                     const std::string& fallback) const
{
    const auto it = query.find(key);
    return it == query.end() ? fallback : it->second;
}

std::string
httpStatusText(int status)
{
    switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
    }
}

HttpServer::HttpServer(Handler handler) : handler_(std::move(handler))
{
    GGA_ASSERT(handler_, "HttpServer needs a handler");
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start(std::uint16_t port, unsigned ioTimeoutMs)
{
    GGA_ASSERT(listenFd_ < 0, "HttpServer already started");
    ioTimeoutMs_ = ioTimeoutMs;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw ServeError(std::string("socket: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ServeError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                         why);
    }
    if (::listen(fd, 64) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ServeError("listen: " + why);
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ServeError("getsockname: " + why);
    }
    port_ = ntohs(addr.sin_port);
    listenFd_ = fd;
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

HttpServer::Stats
HttpServer::stats() const
{
    MutexLock lock(mu_);
    return {live_.size(), acceptedTotal_, rejectedTotal_};
}

void
HttpServer::stop(unsigned drainMs)
{
    {
        MutexLock lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        // Unblock accept(): no new connections from here on.
        if (listenFd_ >= 0)
            ::shutdown(listenFd_, SHUT_RDWR);
    }
    // Graceful drain: requests already inside the handler get a bounded
    // window to write their responses. Idle keep-alive connections hold
    // no active request, so they never delay this loop.
    if (drainMs > 0) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(drainMs);
        while (active_.load(std::memory_order_acquire) > 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        MutexLock lock(mu_);
        // Unblock every connection's recv(), then wait until each thread
        // has moved itself to finished_. An fd in live_ is still open:
        // its thread closes it only after leaving the map.
        for (const auto& conn : live_)
            ::shutdown(conn.first, SHUT_RDWR);
        while (!live_.empty())
            allClosed_.wait(mu_);
    }
    joinFinished();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

bool
HttpServer::stopRequested()
{
    MutexLock lock(mu_);
    return stopping_;
}

void
HttpServer::joinFinished()
{
    std::vector<std::thread> done;
    {
        MutexLock lock(mu_);
        done.swap(finished_);
    }
    for (std::thread& t : done)
        t.join();
}

void
HttpServer::acceptLoop()
{
    while (true) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            const int err = errno; // before any lock/syscall clobbers it
            if (stopRequested())
                return;
            if (err == EINTR || err == ECONNABORTED)
                continue;
            return; // listener gone
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        joinFinished();
        bool admitted = false;
        {
            MutexLock lock(mu_);
            if (stopping_) {
                ::close(fd);
                return;
            }
            if (live_.size() < kMaxConnections) {
                // The new thread's last act takes mu_ to leave live_, so
                // its entry is in place before it can look for it.
                std::thread& slot = live_[fd];
                try {
                    if (faults::fire("http.thread.fail"))
                        throw std::system_error(std::make_error_code(
                            std::errc::resource_unavailable_try_again));
                    slot = std::thread([this, fd] { serveConnection(fd); });
                    admitted = true;
                } catch (const std::system_error& e) {
                    live_.erase(fd);
                    GGA_WARN("http: cannot start a connection thread (",
                             e.what(), "); answering 503");
                }
            }
            if (admitted)
                ++acceptedTotal_;
            else
                ++rejectedTotal_;
        }
        if (!admitted) {
            sendAll(fd, formatResponse({503, "application/json",
                                        "{\"error\":\"too many "
                                        "connections\"}",
                                        {{"Retry-After", "1"}}},
                                       /*close=*/true));
            ::close(fd);
        }
    }
}

void
HttpServer::serveConnection(int fd)
{
    if (ioTimeoutMs_ > 0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(ioTimeoutMs_ / 1000);
        tv.tv_usec = static_cast<suseconds_t>(ioTimeoutMs_ % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    std::string buf;
    bool keepAlive = true;
    while (keepAlive) {
        // Accumulate until the blank line ending the head.
        std::size_t headEnd;
        while ((headEnd = buf.find("\r\n\r\n")) == std::string::npos) {
            if (buf.size() > kMaxBodyBytes)
                goto done;
            switch (recvSome(fd, buf)) {
            case RecvResult::Ok:
                continue;
            case RecvResult::Closed:
                goto done;
            case RecvResult::TimedOut:
                // A half-sent request stalled past the deadline is a
                // slow loris: answer 408 and disconnect. An idle
                // keep-alive connection (empty buffer) between requests
                // is torn down silently.
                if (!buf.empty())
                    sendAll(fd,
                            formatResponse(
                                {408, "application/json",
                                 "{\"error\":\"request read timed "
                                 "out\"}",
                                 {}},
                                /*close=*/true));
                goto done;
            }
        }

        HttpRequest req;
        if (!parseHead(std::string_view(buf).substr(0, headEnd), req)) {
            sendAll(fd, formatResponse(
                            {400, "application/json",
                             "{\"error\":\"malformed request\"}",
                             {}},
                            /*close=*/true));
            goto done;
        }
        buf.erase(0, headEnd + 4);

        std::size_t bodyLen = 0;
        if (const auto it = req.headers.find("content-length");
            it != req.headers.end()) {
            try {
                bodyLen = std::stoull(it->second);
            } catch (...) {
                bodyLen = kMaxBodyBytes + 1;
            }
        }
        if (bodyLen > kMaxBodyBytes) {
            sendAll(fd, formatResponse(
                            {413, "application/json",
                             "{\"error\":\"body too large\"}",
                             {}},
                            /*close=*/true));
            goto done;
        }
        while (buf.size() < bodyLen) {
            const RecvResult r = recvSome(fd, buf);
            if (r == RecvResult::TimedOut)
                sendAll(fd, formatResponse(
                                {408, "application/json",
                                 "{\"error\":\"request read timed "
                                 "out\"}",
                                 {}},
                                /*close=*/true));
            if (r != RecvResult::Ok)
                goto done;
        }
        req.body = buf.substr(0, bodyLen);
        buf.erase(0, bodyLen);

        if (const auto it = req.headers.find("connection");
            it != req.headers.end())
            keepAlive = toLower(it->second) != "close";
        if (stopRequested())
            break;

        active_.fetch_add(1, std::memory_order_acq_rel);
        HttpResponse resp;
        try {
            resp = handler_(req);
        } catch (const std::exception& e) {
            resp.status = 500;
            resp.body =
                std::string("{\"error\":\"internal: ") + e.what() + "\"}";
        }
        const bool sent = sendAll(fd, formatResponse(resp, !keepAlive));
        active_.fetch_sub(1, std::memory_order_acq_rel);
        if (!sent)
            break;
    }
done:
    {
        MutexLock lock(mu_);
        const auto self = live_.find(fd);
        GGA_ASSERT(self != live_.end(), "connection fd ", fd, " not live");
        finished_.push_back(std::move(self->second));
        live_.erase(self);
        if (live_.empty())
            allClosed_.notify_all();
    }
    // Only now: once closed, the fd number can come back from the very
    // next accept(), and live_ must no longer hold it by then.
    ::close(fd);
}

HttpResponse
httpRequest(std::uint16_t port, const std::string& method,
            const std::string& target, const std::string& body,
            const std::map<std::string, std::string>& headers)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw ServeError(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw ServeError("connect 127.0.0.1:" + std::to_string(port) +
                         ": " + why);
    }
    std::string req = method + " " + target + " HTTP/1.1\r\n";
    req += "Host: 127.0.0.1:" + std::to_string(port) + "\r\n";
    req += "Connection: close\r\n";
    for (const auto& [k, v] : headers)
        req += k + ": " + v + "\r\n";
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    req += body;
    if (!sendAll(fd, req)) {
        ::close(fd);
        throw ServeError("send failed (peer closed)");
    }

    std::string buf;
    while (recvSome(fd, buf) == RecvResult::Ok) {
    }
    ::close(fd);

    const std::size_t headEnd = buf.find("\r\n\r\n");
    if (headEnd == std::string::npos)
        throw ServeError("torn HTTP response (no header terminator)");
    const std::string_view head = std::string_view(buf).substr(0, headEnd);
    const std::size_t lineEnd = head.find("\r\n");
    const std::string_view statusLine =
        head.substr(0, lineEnd == std::string_view::npos ? head.size()
                                                         : lineEnd);
    // "HTTP/1.1 200 OK"
    const std::size_t sp = statusLine.find(' ');
    if (sp == std::string_view::npos || statusLine.size() < sp + 4)
        throw ServeError("torn HTTP response (bad status line)");
    HttpResponse resp;
    try {
        resp.status = std::stoi(std::string(statusLine.substr(sp + 1, 3)));
    } catch (...) {
        throw ServeError("torn HTTP response (bad status code)");
    }
    resp.body = buf.substr(headEnd + 4);
    return resp;
}

} // namespace gga

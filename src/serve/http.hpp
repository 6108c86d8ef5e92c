/**
 * @file
 * Minimal HTTP/1.1 transport for the resident service: a blocking
 * thread-per-connection server and a one-shot client, both over plain
 * POSIX sockets.
 *
 * Scope is deliberately narrow — the service speaks small JSON bodies
 * between trusted tools on a private interface, so there is no TLS, no
 * chunked transfer encoding, and no pipelining. What IS here is strict:
 * request lines and headers are parsed exactly, bodies require an
 * accurate Content-Length (capped, so a hostile peer cannot balloon the
 * process), and malformed input closes the connection with a 4xx rather
 * than being guessed at. Keep-alive is supported because the worker
 * protocol polls in a tight loop.
 */

#ifndef GGA_SERVE_HTTP_HPP
#define GGA_SERVE_HTTP_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace gga {

/** Thrown for transport-level failures (bind, connect, torn response). */
class ServeError : public std::runtime_error
{
  public:
    explicit ServeError(const std::string& why) : std::runtime_error(why) {}
};

/** One parsed request. Header names are lower-cased; values trimmed. */
struct HttpRequest
{
    std::string method; ///< "GET", "POST", ...
    std::string target; ///< raw request target ("/v1/jobs?tenant=a")
    std::string path;   ///< target up to '?', percent-decoded
    std::map<std::string, std::string> query; ///< decoded key=value pairs
    std::map<std::string, std::string> headers;
    std::string body;

    /** Query parameter or @p fallback when absent. */
    const std::string& queryOr(const std::string& key,
                               const std::string& fallback) const;
};

struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra response headers (e.g. Retry-After), emitted verbatim. */
    std::map<std::string, std::string> headers;
};

/** The reason phrase for @p status ("Not Found"); "Unknown" otherwise. */
std::string httpStatusText(int status);

/**
 * Thread-per-connection HTTP/1.1 server. The handler is invoked for
 * every well-formed request (any method, any path) and must be
 * thread-safe; transport-level garbage is answered with 400 and a close
 * without reaching it.
 *
 * Connection lifecycle. The accept thread gives each accepted socket
 * its own thread, because handlers may block by design (long-polls) and
 * must not stall anyone else. A connection lives until the peer hangs
 * up or sends "Connection: close" (every in-repo client does), a read
 * times out, a request is malformed, or stop() shuts it down. Its
 * thread then moves its own std::thread handle from the live map to a
 * finished list, and only after that closes the fd: the kernel hands
 * the same fd number to the next accept at once, so bookkeeping keyed
 * by fd must be done while the fd is still ours. The accept thread joins
 * the finished list before it starts the next thread, so a finished
 * connection holds its stack only until the next accept, and memory
 * stays flat however many one-shot requests the server has answered.
 *
 * Bound. At most kMaxConnections connections are live. Past the cap the
 * accept thread answers 503 with "Retry-After: 1" and closes the socket
 * without starting a thread. A connection whose thread fails to start
 * (the process is out of threads or address space) gets the same 503,
 * and the server keeps accepting. stats() counts live, accepted and
 * rejected connections.
 *
 * Shutdown. stop() closes the listener, shuts every live socket down,
 * waits until every connection thread has left the live map, and joins
 * them all, so destruction is always clean. A handler parked in a
 * long-poll does not notice its socket going away; its owner must wake
 * it first (Service::stop() does), or stop() waits for it.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest&)>;

    /** Connection counters, read under the server's mutex. */
    struct Stats
    {
        std::size_t connectionsLive = 0; ///< threads serving a socket now
        std::uint64_t connectionsAcceptedTotal = 0; ///< given a thread
        std::uint64_t connectionsRejectedTotal = 0; ///< answered 503
    };

    explicit HttpServer(Handler handler);

    /** stop()s if still running. */
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /**
     * Bind @p port on the loopback interface and start accepting.
     * Port 0 picks an ephemeral port — read it back with port().
     * @p ioTimeoutMs > 0 arms a per-connection read deadline: a client
     * that stalls mid-request for longer (slow loris) is answered 408
     * and disconnected instead of pinning its thread forever.
     * Throws ServeError on bind failure; calling start twice is an error.
     */
    void start(std::uint16_t port, unsigned ioTimeoutMs = 0);

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /**
     * Shut every connection down, join all threads, close the listener.
     * @p drainMs > 0 first closes the listener only and waits up to that
     * long for in-flight handlers to write their responses (graceful
     * drain); idle keep-alive connections don't delay it. Idempotent.
     * Handlers blocked in long-polls must be unblocked by their own
     * shutdown paths before stop() is called, or stop() waits for them.
     */
    void stop(unsigned drainMs = 0);

    Stats stats() const;

    /** Largest accepted request body, bytes. */
    static constexpr std::size_t kMaxBodyBytes = 64u << 20;
    /** Most connections served at once; the next one is answered 503. */
    static constexpr std::size_t kMaxConnections = 256;

  private:
    void acceptLoop();
    void serveConnection(int fd);
    /** True once stop() has begun (checked between requests). */
    bool stopRequested();
    /** Join the threads of connections that have ended. */
    void joinFinished();

    Handler handler_;
    /**
     * Written by start() before the accept thread exists and reset by
     * stop() after every thread joined, so the unlocked reads in
     * acceptLoop() are ordered by thread creation/join; stop()'s
     * ::shutdown() on it is a syscall on a stable fd, not a data race.
     */
    int listenFd_ = -1;
    std::uint16_t port_ = 0; ///< same start()-only write discipline
    unsigned ioTimeoutMs_ = 0; ///< same start()-only write discipline
    /** Requests currently inside the handler/response write (drain). */
    std::atomic<int> active_{0};
    std::thread acceptThread_;
    mutable Mutex mu_;
    CondVar allClosed_; ///< signalled when live_ becomes empty
    bool stopping_ GGA_GUARDED_BY(mu_) = false;
    /** Open connections: fd -> the thread serving it. */
    std::map<int, std::thread> live_ GGA_GUARDED_BY(mu_);
    /** Threads whose connection has ended, waiting to be joined. */
    std::vector<std::thread> finished_ GGA_GUARDED_BY(mu_);
    std::uint64_t acceptedTotal_ GGA_GUARDED_BY(mu_) = 0;
    std::uint64_t rejectedTotal_ GGA_GUARDED_BY(mu_) = 0;
};

/**
 * One-shot HTTP/1.1 client request to 127.0.0.1:@p port (Connection:
 * close). Returns the parsed response; throws ServeError when the
 * server is unreachable or the response is torn. Any status code is
 * returned, not thrown — protocol errors are the caller's to interpret.
 */
HttpResponse httpRequest(std::uint16_t port, const std::string& method,
                         const std::string& target,
                         const std::string& body = {},
                         const std::map<std::string, std::string>& headers = {});

} // namespace gga

#endif // GGA_SERVE_HTTP_HPP

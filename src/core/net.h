/**
 * @file
 * Minimal Unix-domain-socket primitives for the compile service
 * (docs/SERVICE.md): a listener, a blocking connect, line-buffered
 * reads, and SIGPIPE-safe whole-buffer writes.
 *
 * The service protocol is JSON-line (one request or response object per
 * '\n'-terminated line), so this layer deals only in byte streams and
 * lines; framing above it is core-agnostic. Writes use MSG_NOSIGNAL so a
 * client that disconnects mid-response surfaces as an error return, not
 * a process-killing SIGPIPE — a daemon must outlive its rudest client.
 */
#ifndef POLYMATH_CORE_NET_H_
#define POLYMATH_CORE_NET_H_

#include <atomic>
#include <cstddef>
#include <string>

namespace polymath::core {

/**
 * Largest accepted line, including the terminator (64 MiB). A peer that
 * streams an unterminated request must not grow our buffer without
 * bound; LineReader fails the connection past this.
 */
inline constexpr size_t kMaxLineBytes = 64u << 20;

/** Closes @p fd if valid (EINTR-safe); negative fds are ignored. */
void closeFd(int fd);

/**
 * Writes all of @p data to @p fd, retrying short writes and EINTR.
 * Returns false on any other error (including EPIPE from a vanished
 * peer — no signal is raised). Never throws.
 */
bool writeAll(int fd, const std::string &data);

/** Incremental '\n'-delimited reader over a blocking socket fd. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /**
     * Reads the next line into @p line (terminator stripped). Returns
     * true on success; false on clean EOF, on a read error, or when a
     * line exceeds kMaxLineBytes. A final unterminated fragment before
     * EOF is discarded — a truncated request is not a request.
     */
    bool readLine(std::string &line);

  private:
    int fd_;
    std::string buffer_;
    size_t scanned_ = 0;
    bool failed_ = false;
};

/**
 * Connects to the Unix-domain socket at @p path.
 * @returns the connected fd. @throws UserError when the path is too
 * long for sockaddr_un or the connection is refused/absent.
 */
int connectUnix(const std::string &path);

/** Listening Unix-domain socket bound to a filesystem path. */
class UnixListener
{
  public:
    UnixListener() = default;

    /** Closes and unlinks. */
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /**
     * Binds and listens on @p path, replacing a stale socket file from
     * a dead server if one is there. @throws UserError when the path is
     * too long, or bind/listen fail.
     */
    void listen(const std::string &path, int backlog = 64);

    /**
     * Accepts one connection (blocking), retrying EINTR. Returns the
     * connection fd, or -1 with errno set: after close() (the shutdown
     * path, when listening() is false), and on any other accept error,
     * such as EMFILE while the process is out of descriptors, after
     * which the listener still works.
     */
    int accept();

    /**
     * Shuts the listening socket down (unblocking a concurrent
     * accept(), which then returns -1) and unlinks the socket file.
     * The fd itself is closed by the destructor — deferring the close
     * keeps a racing accept() from ever seeing a recycled descriptor.
     * Idempotent; safe to call from a thread other than the acceptor.
     */
    void close();

    bool listening() const { return fd_ >= 0 && !closed_; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    /** Set by close(), which another thread may call during accept(). */
    std::atomic<bool> closed_{false};
    std::string path_;
};

} // namespace polymath::core

#endif // POLYMATH_CORE_NET_H_

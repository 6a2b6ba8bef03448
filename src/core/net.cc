#include "core/net.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/error.h"

namespace polymath::core {

namespace {

/** Fills @p addr from @p path. @throws UserError when it does not fit. */
void
fillAddr(const std::string &path, sockaddr_un &addr)
{
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.empty())
        fatal("unix socket path must not be empty");
    if (path.size() >= sizeof(addr.sun_path))
        fatal("unix socket path too long (" + std::to_string(path.size()) +
              " bytes, max " + std::to_string(sizeof(addr.sun_path) - 1) +
              "): '" + path + "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

} // namespace

void
closeFd(int fd)
{
    if (fd < 0)
        return;
    // POSIX leaves the fd state after EINTR unspecified; on Linux the fd
    // is closed either way, so a retry loop would risk closing a
    // recycled descriptor. One call is the safe idiom.
    ::close(fd);
}

bool
writeAll(int fd, const std::string &data)
{
    size_t sent = 0;
    while (sent < data.size()) {
        // MSG_NOSIGNAL: a disconnected peer yields EPIPE instead of
        // raising SIGPIPE and killing the daemon.
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
LineReader::readLine(std::string &line)
{
    if (failed_)
        return false;
    for (;;) {
        const size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            line.assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            scanned_ = 0;
            return true;
        }
        scanned_ = buffer_.size();
        if (buffer_.size() >= kMaxLineBytes) {
            failed_ = true; // unbounded line: poison the connection
            return false;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n == 0)
            return false; // EOF; any partial line is discarded
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            return false;
        }
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr;
    fillAddr(path, addr);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("cannot create unix socket: " +
              std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        closeFd(fd);
        fatal("cannot connect to '" + path +
              "': " + std::string(std::strerror(err)));
    }
    return fd;
}

UnixListener::~UnixListener()
{
    close();
    closeFd(fd_);
    fd_ = -1;
}

void
UnixListener::listen(const std::string &path, int backlog)
{
    sockaddr_un addr;
    fillAddr(path, addr);
    close();
    closeFd(fd_);
    fd_ = -1;
    closed_ = false;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("cannot create unix socket: " +
              std::string(std::strerror(errno)));
    // A stale socket file from a crashed server would fail bind with
    // EADDRINUSE; if nobody answers on it, it is garbage — remove it.
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        closeFd(fd);
        fatal("'" + path + "' already has a listening server");
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        closeFd(fd);
        fatal("cannot bind '" + path +
              "': " + std::string(std::strerror(err)));
    }
    if (::listen(fd, backlog) != 0) {
        const int err = errno;
        closeFd(fd);
        ::unlink(path.c_str());
        fatal("cannot listen on '" + path +
              "': " + std::string(std::strerror(err)));
    }
    fd_ = fd;
    path_ = path;
}

int
UnixListener::accept()
{
    for (;;) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn >= 0)
            return conn;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

void
UnixListener::close()
{
    if (fd_ < 0 || closed_.exchange(true))
        return;
    // shutdown() wakes a blocked accept() (it returns EINVAL on Linux);
    // the fd stays open until destruction so the acceptor can never
    // race against a recycled descriptor number.
    ::shutdown(fd_, SHUT_RDWR);
    if (!path_.empty())
        ::unlink(path_.c_str());
    path_.clear();
}

} // namespace polymath::core

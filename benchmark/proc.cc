#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.h"
#include "core/net.h"
#include "service/client.h"

extern char **environ;

namespace stackbench {

using polymath::fatal;

namespace {

/** Owns the two ends of a pipe; closes whatever is still open. */
struct Pipe
{
    int fds[2] = {-1, -1};

    Pipe()
    {
        if (::pipe2(fds, O_CLOEXEC) != 0)
            fatal(std::string("pipe: ") + std::strerror(errno));
    }
    ~Pipe()
    {
        closeEnd(0);
        closeEnd(1);
    }
    Pipe(const Pipe &) = delete;
    Pipe &operator=(const Pipe &) = delete;

    void closeEnd(int end)
    {
        polymath::core::closeFd(fds[end]);
        fds[end] = -1;
    }
};

/** posix_spawn of @p argv in @p cwd with the given stdio descriptors
 *  (-1 = /dev/null). */
pid_t
spawn(const std::vector<std::string> &argv, const std::string &cwd,
      int stdin_fd, int stdout_fd)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const auto redirect = [&](int fd, int target, int flags) {
        if (fd >= 0)
            posix_spawn_file_actions_adddup2(&actions, fd, target);
        else
            posix_spawn_file_actions_addopen(&actions, target, "/dev/null",
                                             flags, 0);
    };
    redirect(stdin_fd, STDIN_FILENO, O_RDONLY);
    redirect(stdout_fd, STDOUT_FILENO, O_WRONLY);
    redirect(-1, STDERR_FILENO, O_WRONLY);
    if (!cwd.empty())
        posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());

    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        fatal("cannot run " + argv[0] + ": " + std::strerror(rc));
    return pid;
}

/** waitpid that retries EINTR; returns the raw status. */
int
reap(pid_t pid, rusage *usage)
{
    int status = 0;
    while (::wait4(pid, &status, 0, usage) < 0) {
        if (errno != EINTR)
            fatal(std::string("wait4: ") + std::strerror(errno));
    }
    return status;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

ChildResult
runChild(const std::vector<std::string> &argv, const std::string &cwd,
         const std::string &input)
{
    Pipe out;
    Pipe in;
    ChildResult result;
    const auto start = Clock::now();
    const pid_t pid = spawn(argv, cwd, input.empty() ? -1 : in.fds[0],
                            out.fds[1]);
    out.closeEnd(1);
    in.closeEnd(0);
    // The input is small (well under a pipe buffer), so writing it all
    // before reading the output cannot deadlock. A child that exits
    // without reading it gets EPIPE here, not a signal (see main).
    for (size_t done = 0; done < input.size();) {
        const ssize_t n =
            ::write(in.fds[1], input.data() + done, input.size() - done);
        if (n > 0)
            done += static_cast<size_t>(n);
        else if (errno != EINTR)
            break;
    }
    in.closeEnd(1);
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(out.fds[0], buf, sizeof buf);
        if (n > 0) {
            result.out.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    rusage usage{};
    const int status = reap(pid, &usage);
    result.wallSeconds = secondsBetween(start, Clock::now());
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.cpuSeconds = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    result.maxRssMiB = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return result;
}

Daemon::Daemon(const std::string &pmcd, const std::string &socket,
               const std::vector<std::string> &flags)
    : socket_(socket)
{
    std::vector<std::string> argv = {pmcd, "--socket", socket};
    argv.insert(argv.end(), flags.begin(), flags.end());
    spawnedAt_ = Clock::now();
    pid_ = spawn(argv, "", -1, -1);
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        try {
            reap(pid_, nullptr);
        } catch (...) {
            // Nothing left to do for a child we cannot reap.
        }
    }
    ::unlink(socket_.c_str());
}

double
Daemon::waitReady()
{
    polymath::service::Request stats;
    stats.verb = polymath::service::Verb::Stats;
    for (;;) {
        try {
            polymath::service::Client client(socket_);
            const auto response = client.call(stats);
            if (!response.ok)
                fatal("pmcd answered its first stats request with an "
                      "error");
            return secondsBetween(spawnedAt_, Clock::now());
        } catch (const polymath::UserError &) {
            // Not listening yet: retry below.
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            fatal("pmcd exited before it started serving on " + socket_);
        }
        if (secondsBetween(spawnedAt_, Clock::now()) > 30)
            fatal("pmcd did not start serving on " + socket_ +
                  " within 30 s");
        // Poll without sleeping: a timed sleep would round set-up time
        // up to the timer slack (50 us by default), a twentieth of it.
        std::this_thread::yield();
    }
}

double
Daemon::cpuSeconds() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const size_t close = text.rfind(')');
    if (close == std::string::npos)
        fatal("cannot read /proc/" + std::to_string(pid_) + "/stat");
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14)
            utime = std::stoull(field);
        if (i == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
Daemon::peakRssMiB() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    fatal("no VmHWM in /proc/" + std::to_string(pid_) + "/status");
}

std::map<std::string, double>
Daemon::shutdown()
{
    polymath::service::Request bye;
    bye.verb = polymath::service::Verb::Shutdown;
    polymath::service::Response response;
    {
        polymath::service::Client client(socket_);
        response = client.call(bye);
    }
    const int status = reap(pid_, nullptr);
    pid_ = -1;
    if (!response.ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("pmcd did not shut down cleanly");
    return response.stats;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace stackbench

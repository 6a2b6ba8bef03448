#include "service/client.h"

#include "core/error.h"

namespace polymath::service {

Client::Client(const std::string &socketPath)
    : fd_(core::connectUnix(socketPath)), reader_(fd_)
{
}

Client::~Client()
{
    core::closeFd(fd_);
}

void
Client::send(const Request &request)
{
    std::string line = request.json();
    line += '\n';
    if (!core::writeAll(fd_, line))
        fatal("service: connection lost while sending request");
}

bool
Client::recv(Response &response)
{
    std::string line;
    if (!reader_.readLine(line))
        return false;
    response = Response::fromJson(line);
    return true;
}

Response
Client::call(const Request &request)
{
    send(request);
    Response response;
    if (!recv(response))
        fatal("service: connection closed before a response arrived");
    return response;
}

} // namespace polymath::service

// saiyand-control — thin client for the saiyand control socket.
//
//   saiyand-control [--socket PATH]
//                   stats [--json] | health [--json]
//                   | links [--json] [--top N] [--sort KEY]
//                   | metrics | reload | drain | dump_trace
//
// Prints the response payload to stdout; exits 0 on an ok status,
// 1 on a daemon-reported error, 2 on usage/connection problems.
// Options travel as `key=value` tokens in the request payload
// (--json is format=json, --top N is top=N, --sort KEY is sort=KEY),
// and the daemon parses them: it renders JSON itself and rejects an
// option the op does not take, so client and server never disagree
// on syntax. `metrics` is Prometheus text exposition, `dump_trace`
// is Chrome trace-event JSON.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "daemon/control_protocol.hpp"

namespace {

const char kUsage[] =
    "usage: saiyand-control [--socket PATH] "
    "stats|health [--json]|reload|drain|metrics|dump_trace\n"
    "       |links [--json] [--top N] [--sort frames|snr|last_seen|tag]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace saiyan::daemon;
  std::string socket_path = "/tmp/saiyand.sock";
  std::string command;
  ControlRequest req;  // options travel as " key=value" payload tokens
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" || arg == "--top" || arg == "--sort") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "saiyand-control: %s needs a value\n",
                     arg.c_str());
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--socket") {
        socket_path = value;
      } else {
        req.payload += ' ' + arg.substr(2) + '=' + value;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--json") {
      req.payload += " format=json";
    } else if (command.empty()) {
      command = arg;
    } else {
      std::fprintf(stderr, "saiyand-control: unexpected argument %s\n",
                   arg.c_str());
      return 2;
    }
  }

  if (command == "stats") {
    req.op = ControlOp::kStats;
  } else if (command == "reload") {
    req.op = ControlOp::kReload;
  } else if (command == "drain") {
    req.op = ControlOp::kDrain;
  } else if (command == "health") {
    req.op = ControlOp::kHealth;
  } else if (command == "metrics") {
    req.op = ControlOp::kMetrics;
  } else if (command == "dump_trace" || command == "dump-trace") {
    req.op = ControlOp::kDumpTrace;
  } else if (command == "links") {
    req.op = ControlOp::kLinks;
  } else {
    std::fputs(kUsage, stderr);
    return 2;
  }

  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "saiyand-control: socket path too long\n");
    return 2;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("saiyand-control: socket");
    return 2;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "saiyand-control: connect %s: %s\n",
                 socket_path.c_str(), std::strerror(errno));
    ::close(fd);
    return 2;
  }

  int rc = 2;
  if (auto w = write_all(fd, encode_request(req)); !w.ok()) {
    std::fprintf(stderr, "saiyand-control: %s\n", w.message().c_str());
  } else if (auto frame = read_frame(fd); !frame.ok()) {
    std::fprintf(stderr, "saiyand-control: %s\n", frame.message().c_str());
  } else if (auto resp = decode_response(frame.value()); !resp.ok()) {
    std::fprintf(stderr, "saiyand-control: %s\n", resp.message().c_str());
  } else if (resp.value().status != ControlStatus::kOk) {
    std::fprintf(stderr, "saiyand-control: error: %s\n",
                 resp.value().payload.c_str());
    rc = 1;
  } else {
    std::fputs(resp.value().payload.c_str(), stdout);
    rc = 0;
  }
  ::close(fd);
  return rc;
}

// Seed-corpus generator for fuzz_control: writes valid and near-valid
// control-protocol frames into a directory so the fuzzer starts from
// the real framing (little-endian length prefix, op/status byte)
// instead of rediscovering it one byte at a time.
//
// Usage: control_corpus_gen <output-dir>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "daemon/control_protocol.hpp"

namespace {

using namespace saiyan;

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::string request(daemon::ControlOp op, std::string payload = {}) {
  daemon::ControlRequest req;
  req.op = op;
  req.payload = std::move(payload);
  return daemon::encode_request(req);
}

std::string response(daemon::ControlStatus status, std::string payload) {
  daemon::ControlResponse resp;
  resp.status = status;
  resp.payload = std::move(payload);
  return daemon::encode_response(resp);
}

/// Raw frame with an arbitrary length prefix — for the frames the
/// encoder refuses to produce (lying lengths, unknown ops).
std::string raw_frame(std::uint32_t declared_len, std::uint8_t head,
                      const std::string& payload) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((declared_len >> (8 * i)) & 0xff));
  }
  out.push_back(static_cast<char>(head));
  out.append(payload);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: control_corpus_gen <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  int wrote = 0;
  auto emit = [&](const char* name, const std::string& bytes) {
    if (!write_file(dir + "/" + name, bytes)) {
      std::fprintf(stderr, "control_corpus_gen: cannot write %s/%s\n",
                   dir.c_str(), name);
      std::exit(1);
    }
    ++wrote;
  };

  // Every live op, bare and with a payload (reload carries none today,
  // but the codec must not care).
  emit("req_stats.ctl", request(daemon::ControlOp::kStats));
  emit("req_reload.ctl", request(daemon::ControlOp::kReload));
  emit("req_drain.ctl", request(daemon::ControlOp::kDrain));
  emit("req_health.ctl", request(daemon::ControlOp::kHealth));
  emit("req_metrics.ctl", request(daemon::ControlOp::kMetrics));
  emit("req_dump_trace.ctl", request(daemon::ControlOp::kDumpTrace));
  emit("req_payload.ctl", request(daemon::ControlOp::kStats, "hello world"));

  // The readouts carry a real option grammar ("format=F top=N
  // sort=KEY") parsed by the daemon — seed the fuzzer with
  // well-formed, partial, and broken variants so mutation explores the
  // parser, not just the framing.
  emit("req_links.ctl", request(daemon::ControlOp::kLinks));
  emit("req_links_opts.ctl",
       request(daemon::ControlOp::kLinks, "top=5 sort=snr"));
  emit("req_links_sort_only.ctl",
       request(daemon::ControlOp::kLinks, "sort=last_seen"));
  emit("req_links_bad_top.ctl",
       request(daemon::ControlOp::kLinks, "top=~~ sort="));
  emit("req_links_bad_key.ctl",
       request(daemon::ControlOp::kLinks, "limit=3"));
  emit("req_links_no_eq.ctl", request(daemon::ControlOp::kLinks, "top 3"));
  emit("req_links_json.ctl",
       request(daemon::ControlOp::kLinks, "format=json top=2 sort=tag"));

  // stats and health share the option parser; format= is their one
  // option, and a bad value is a typed error.
  emit("req_stats_json.ctl",
       request(daemon::ControlOp::kStats, "format=json"));
  emit("req_health_json.ctl",
       request(daemon::ControlOp::kHealth, "format=json"));
  emit("req_stats_bad_format.ctl",
       request(daemon::ControlOp::kStats, "format=xml"));

  // Responses: ok with a stats-shaped body, error with a message.
  emit("resp_ok.ctl",
       response(daemon::ControlStatus::kOk,
                "jobs_done 3\njobs_failed 0\nframes_total 128\n"));
  emit("resp_err.ctl",
       response(daemon::ControlStatus::kError, "reload: config invalid"));

  // Near-valid frames the decoder must reject without a crash: empty
  // body, truncated header, truncated body, length prefix too long and
  // too short for the bytes present, unknown op, body at the cap edge.
  emit("empty_body.ctl", raw_frame(0, 0, ""));
  emit("short_header.ctl", std::string("\x02\x00", 2));
  emit("trunc_body.ctl", raw_frame(16, 1, "abc"));
  emit("len_too_short.ctl", raw_frame(2, 1, "abcdefgh"));
  emit("unknown_op.ctl", raw_frame(1, 0x7f, ""));
  emit("huge_len.ctl", raw_frame(0xffffffffu, 1, "xx"));
  emit("cap_edge.ctl",
       request(daemon::ControlOp::kStats,
               std::string(daemon::kMaxControlPayload, 'A')));

  std::printf("control_corpus_gen: wrote %d seed frames to %s\n", wrote,
              dir.c_str());
  return 0;
}

// hadfl_node — one device process of a `hadfl_run --backend=net` run.
//
// Not meant to be launched by hand: net::ProcessFleet spawns K of these
// with the coordinator's scenario flags forwarded verbatim plus the
// endpoint wiring below. Each node rebuilds the identical run context from
// the shared seed (exp/cli_setup.hpp — the same construction path
// hadfl_run uses), joins the socket mesh as endpoint --node-id, and runs
// the shared device worker loop until the coordinator's kStop.
//
// Endpoint wiring (injected by the fleet):
//   --node-id=<d>         this process's device id
//   --run-nonce=<u64>     run epoch every kHello must present
//   --transport=tcp|uds
//   --listen-fd=<fd>      tcp: inherited pre-bound listener
//   --tcp-ports=<list>    tcp: every node's loopback port, id order
//   --socket-dir=<path>   uds: directory of node-<id>.sock paths
//   --connect-timeout=<s> mesh formation deadline            [10]
#include <cstdlib>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "exp/cli_setup.hpp"
#include "net/runner.hpp"

using namespace hadfl;

namespace {

const std::vector<std::string> kKnownOptions{
    // scenario flags (exp/cli_setup.hpp forwards exactly these)
    "model", "ratio", "epochs", "scale", "seed", "np", "tsync", "policy",
    "mix", "group-size", "partition", "network", "jitter", "throttle",
    "sync-chunks", "sync-codec", "topk-ratio", "wallclock",
    "adaptive", "adaptive-alpha", "adaptive-warmup", "adaptive-tune",
    // endpoint wiring
    "node-id", "run-nonce", "transport", "listen-fd", "tcp-ports",
    "socket-dir", "connect-timeout", "verbose"};

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  for (const std::string& piece : split_csv_list(list)) {
    const long value = std::atol(piece.c_str());
    if (value <= 0 || value > 65535) {
      throw InvalidArgument("bad --tcp-ports entry: " + piece);
    }
    ports.push_back(static_cast<std::uint16_t>(value));
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    const auto unknown = args.unknown_options(kKnownOptions);
    if (!unknown.empty()) {
      std::cerr << "hadfl_node: unknown option --" << unknown.front() << "\n";
      return 2;
    }
    if (args.has("verbose")) set_log_level(LogLevel::kInfo);
    const std::string codec_error = exp::sync_codec_flag_error(
        exp::sync_codec_arg(args), args.get_double("topk-ratio", 0.05));
    if (!codec_error.empty()) {
      std::cerr << "hadfl_node: " << codec_error << "\n";
      return 2;
    }
    if (!args.has("node-id") || !args.has("run-nonce")) {
      std::cerr << "hadfl_node: --node-id and --run-nonce are required "
                   "(this binary is launched by hadfl_run --backend=net)\n";
      return 2;
    }

    net::NodeOptions options;
    options.node_id =
        static_cast<rt::DeviceId>(args.get_int("node-id", 0));
    options.run_nonce = std::strtoull(args.get("run-nonce", "0").c_str(),
                                      nullptr, 10);
    options.connect_timeout_s = args.get_double("connect-timeout", 10.0);
    const std::string transport = args.get("transport", "tcp");
    if (transport == "tcp") {
      options.kind = net::TransportKind::kTcp;
      options.listen_fd = args.get_int("listen-fd", -1);
      options.tcp_ports = parse_ports(args.get("tcp-ports", ""));
    } else if (transport == "uds") {
      options.kind = net::TransportKind::kUds;
      options.socket_dir = args.get("socket-dir", "");
    } else {
      std::cerr << "hadfl_node: unknown --transport: " << transport << "\n";
      return 2;
    }

    const exp::RunSetup setup = exp::make_run_setup(args);
    const rt::RtConfig config = exp::make_rt_config(args, setup.scenario);
    const fl::SchemeContext ctx = setup.context();
    return net::run_hadfl_node(ctx, config, options);
  } catch (const Error& e) {
    std::cerr << "hadfl_node: error: " << e.what() << "\n";
    return 1;
  }
}

// zbench: end-to-end benchmark of the zendoo library.
//
//   zbench --workload <mc-proofheavy|sc-epochs|net-cluster> --seed <n>
//          --seconds <s> --trace <0|1> [--scale tiny] [--corrupt sig]
//          [--spans-out <file>]
//
// Prints one line per metric, then a JSON object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics (ledger included) with --trace 1. See zbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "zbench: %s\nusage: zbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--corrupt sig] [--spans-out <file>]\n",
               why);
  std::exit(2);
}

zbench::Options parse(int argc, char** argv) {
  zbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--scale") {
      opts.scale = value;
    } else if (flag == "--corrupt") {
      opts.corrupt = value;
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.scale != "full" && opts.scale != "tiny") usage("bad --scale");
  if (!opts.corrupt.empty() && opts.corrupt != "sig") usage("bad --corrupt");
  if (opts.seconds <= 0) usage("--seconds must be positive");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  zbench::Options opts = parse(argc, argv);
  zbench::Report report;
  try {
    if (opts.workload == "mc-proofheavy") {
      zbench::run_mc_proofheavy(opts, report);
    } else if (opts.workload == "sc-epochs") {
      zbench::run_sc_epochs(opts, report);
    } else if (opts.workload == "net-cluster") {
      zbench::run_net_cluster(opts, report);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zbench: %s aborted: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "zbench: no operation was attempted\n");
    return 1;
  }
  report.set("failed_frac",
             static_cast<double>(report.failed()) /
                 static_cast<double>(report.attempted()),
             "ratio");
  report.set("peak_rss_mb", zbench::peak_rss_mb(), "MB");
  report.print(opts.trace ? zbench::per_layer_metrics()
                          : zbench::end_to_end_metrics());
  return 0;
}

// pfi_run — the command-line face of the tool: pick a target protocol, feed
// it a filter-script file, run for a simulated duration, and get the trace
// (optionally as a message-sequence chart).
//
//   $ ./pfi_run --protocol tcp --vendor solaris --diagram
//       --script ../scripts/drop_after_30.tcl --duration 300   (one line)
//   $ ./pfi_run --protocol gmp --node 3
//       --script ../scripts/general_omission_20.tcl --duration 60
//
// This is how the paper's workflow looks operationally: the tool is compiled
// once; each test is a different script file.
#include <cstdio>
#include <string>

#include "campaign/flags.hpp"
#include "campaign/vendors.hpp"
#include "experiments/gmp_testbed.hpp"
#include "experiments/tcp_testbed.hpp"
#include "pfi/driver.hpp"
#include "pfi/script_file.hpp"
#include "trace/sequence.hpp"

using namespace pfi;
using namespace pfi::experiments;

namespace {

struct Args {
  std::string protocol = "tcp";
  tcp::TcpProfile profile = tcp::profiles::sunos_4_1_3();
  std::string script;
  int duration_s = 300;
  int node = 3;  // which GMP node gets the script (the testbed has 1..3)
  bool diagram = false;
  bool json = false;
  bool no_trace = false;
};

int run_tcp(const Args& args) {
  TcpTestbed tb{args.profile};
  if (!args.script.empty() &&
      !core::install_script_file(*tb.pfi, args.script)) {
    std::fprintf(stderr, "error: can't load script %s\n",
                 args.script.c_str());
    return 1;
  }
  tcp::TcpConnection* conn = tb.connect();
  core::TcpDriver driver{tb.sched, *conn};
  driver.start(sim::msec(500), 512, 0);
  tb.sched.run_until(sim::sec(args.duration_s));

  std::printf("vendor %s: state=%s (%s), sent=%llu rtx=%llu; "
              "pfi dropped=%llu delayed=%llu errors=%llu\n",
              tb.vendor_tcp->profile().name.c_str(),
              tcp::to_string(conn->state()).c_str(),
              tcp::to_string(conn->close_reason()).c_str(),
              static_cast<unsigned long long>(conn->stats().segments_sent),
              static_cast<unsigned long long>(conn->stats().data_retransmits),
              static_cast<unsigned long long>(tb.pfi->stats().dropped),
              static_cast<unsigned long long>(tb.pfi->stats().delayed),
              static_cast<unsigned long long>(tb.pfi->stats().script_errors));
  if (args.json) {
    std::printf("%s", tb.trace.to_json().c_str());
  } else if (args.diagram) {
    auto events = trace::events_from_trace(tb.trace, {"vendor", "xkernel"},
                                           "vendor", "tcp-");
    if (events.size() > 60) events.resize(60);
    std::printf("\n%s", trace::render_sequence({"vendor", "xkernel"}, events)
                            .c_str());
  } else if (!args.no_trace) {
    std::printf("\n%s", tb.trace.render().c_str());
  }
  return 0;
}

int run_gmp(const Args& args) {
  GmpTestbed tb{{1, 2, 3}, gmp::GmpBugs::none()};
  tb.start_all();
  if (!args.script.empty() &&
      !core::install_script_file(tb.pfi(static_cast<net::NodeId>(args.node)),
                                 args.script)) {
    std::fprintf(stderr, "error: can't load script %s\n",
                 args.script.c_str());
    return 1;
  }
  tb.sched.run_until(sim::sec(args.duration_s));
  for (net::NodeId id : tb.ids()) {
    const auto& d = tb.gmd(id);
    std::printf("gmd-%u: %-13s %s\n", id, gmp::to_string(d.status()).c_str(),
                d.view().summary().c_str());
  }
  std::printf("views consistent: %s\n",
              tb.views_consistent() ? "yes" : "NO");
  if (args.json) {
    std::printf("%s", tb.trace.to_json().c_str());
  } else if (!args.no_trace) {
    // Event records only; full packet logs need msg_log in the script.
    for (const auto& r : tb.trace.records()) {
      if (r.direction == "event") {
        std::printf("%10.3fs %-8s %-28s %s\n", sim::to_seconds(r.at),
                    r.node.c_str(), r.type.c_str(), r.detail.c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  namespace f = campaign::flags;
  Args args;
  f::Parser parser(
      "pfi_run", {"[options]"},
      {
          f::custom("--protocol", "tcp|gmp", "target protocol (default tcp)",
                    "tcp|gmp",
                    [&](std::string_view v) {
                      args.protocol = v;
                      return v == "tcp" || v == "gmp";
                    }),
          f::custom("--vendor", "NAME", "TCP vendor stack (default sunos)",
                    campaign::vendor_choices(),
                    [&](std::string_view v) {
                      auto p = campaign::vendor_profile(v);
                      if (p) args.profile = std::move(*p);
                      return p.has_value();
                    }),
          f::text("--script", "FILE", "filter-script file to install",
                  &args.script),
          f::number("--duration", "SECONDS", "simulated run time (default "
                    "300)", &args.duration_s),
          f::custom("--node", "N", "GMP node that gets the script (default "
                    "3)", "1..3",
                    [&](std::string_view v) {
                      return campaign::kv::to_int(v, &args.node) &&
                             args.node >= 1 && args.node <= 3;
                    }),
          f::toggle("--diagram", "print a message-sequence chart (tcp)",
                    &args.diagram),
          f::toggle("--json", "print the trace as JSON", &args.json),
          f::toggle("--no-trace", "print only the summary", &args.no_trace),
      });
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  if (!parser.positionals().empty()) {
    return parser.fail("unexpected argument " + parser.positionals()[0]);
  }
  if (args.protocol == "gmp") return run_gmp(args);
  return run_tcp(args);
}

// TCP probing walkthrough: reproduce the heart of the paper's experiment 1
// against one vendor stack, narrating what the PFI layer sees.
//
//   $ ./tcp_probing            # probes SunOS 4.1.3
//   $ ./tcp_probing solaris    # probes Solaris 2.3 (any campaign vendor)
//
// Opens a connection from the chosen vendor TCP to the instrumented x-Kernel
// machine, lets thirty segments through, then drops everything inbound and
// watches the vendor retransmit — all orchestrated by a Tcl script, no
// recompilation between vendors.
#include <cstdio>

#include "campaign/flags.hpp"
#include "campaign/vendors.hpp"
#include "experiments/tcp_testbed.hpp"
#include "pfi/driver.hpp"
#include "tcp/profile.hpp"

using namespace pfi;
using namespace pfi::experiments;

int main(int argc, char** argv) {
  campaign::flags::Parser parser(
      "tcp_probing", {"[" + campaign::vendor_choices() + "]"}, {});
  if (const int rc = parser.parse(argc, argv); rc >= 0) return rc;
  const auto& args = parser.positionals();
  if (args.size() > 1) return parser.fail("unexpected argument " + args[1]);
  const std::string vendor = args.empty() ? "sunos" : args[0];
  const auto found = campaign::vendor_profile(vendor);
  if (!found) {
    return parser.fail("unknown vendor '" + vendor + "' (want " +
                       campaign::vendor_choices() + ")");
  }
  const tcp::TcpProfile& profile = *found;
  std::printf("probing vendor stack: %s\n", profile.name.c_str());

  TcpTestbed tb{profile};
  tb.pfi->run_setup("set count 0");
  tb.pfi->set_receive_script(R"tcl(
set t [msg_type cur_msg]
if {$t == "tcp-data"} { incr count }
if {$count > 30} {
  msg_log cur_msg
  xDrop cur_msg
}
)tcl");

  tcp::TcpConnection* conn = tb.connect();
  core::TcpDriver driver{tb.sched, *conn};
  driver.start(sim::msec(500), 512, 0);
  tb.sched.run_until(sim::sec(1500));

  std::printf("\nconnection end state: %s (%s)\n",
              tcp::to_string(conn->state()).c_str(),
              tcp::to_string(conn->close_reason()).c_str());
  std::printf("vendor sent %llu segments, retransmitted %llu\n",
              static_cast<unsigned long long>(conn->stats().segments_sent),
              static_cast<unsigned long long>(conn->stats().data_retransmits));

  std::printf("\npackets logged (and dropped) by the receive filter:\n");
  int shown = 0;
  sim::TimePoint prev = 0;
  for (const auto& rec : tb.trace.records()) {
    if (rec.direction != "recv") continue;
    std::printf("  t=%9.3fs (+%7.3fs)  %-9s %s\n", sim::to_seconds(rec.at),
                prev == 0 ? 0.0 : sim::to_seconds(rec.at - prev),
                rec.type.c_str(), rec.detail.substr(0, 52).c_str());
    prev = rec.at;
    if (++shown >= 20) {
      std::printf("  ... (%zu more)\n",
                  tb.trace.records().size() - static_cast<std::size_t>(shown));
      break;
    }
  }
  std::printf(
      "\nThe +deltas are the vendor's retransmission timeouts: exponential\n"
      "backoff exactly as the paper's Table 1 describes for this stack.\n");
  return 0;
}

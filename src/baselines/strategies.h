// Named, fully-specified page-load configurations for every scheme the
// paper evaluates (see DESIGN.md's per-experiment index).
#pragma once

#include <memory>
#include <string>

#include "browser/browser.h"
#include "core/vroom_provider.h"
#include "http/connection_pool.h"

namespace vroom::baselines {

struct Strategy {
  std::string name;
  http::Protocol protocol = http::Protocol::Http2;

  // Server side.
  bool server_aid = false;
  core::VroomProviderConfig provider;
  bool first_party_only = false;  // aid limited to the first-party org
  // Vroom's modified origins write responses in request order (§5.1);
  // stock HTTP/2 interleaves frames across streams.
  bool ordered_writer = false;

  // Client side.
  enum class Sched {
    Default,
    VroomStaged,
    FetchAsap,
    Polaris,
    VroomPolaris,  // §6.1 future work: Vroom aid + Polaris client queue
  } sched = Sched::Default;

  // Special modes for the Figure 2 bounds.
  bool know_all_upfront = false;  // network-bound: fetch all, evaluate none
  bool zero_cpu = false;
  bool local_network = false;  // CPU-bound: servers on a USB-tethered desktop

  // Canonical text encoding of *every* knob that affects simulation (name,
  // protocol, server-aid provider config including the offline-resolver
  // parameters, scheduler, writer discipline, bound modes). Two strategies
  // with equal fingerprints produce bit-identical loads for the same (seed,
  // page, nonce, device, network); the fleet manifest records it per cell
  // (cell.N.fingerprint).
  std::string fingerprint() const;
};

// Creates the client fetch policy an instance of this strategy needs (one
// per page load; staged schedulers carry per-load state).
std::unique_ptr<browser::FetchPolicy> make_policy(const Strategy& s);

// --- The paper's configurations ---

Strategy http11();                    // "Loads from Web" proxy (Fig 1/3/13)
Strategy http2_baseline();            // global HTTP/2, no aid
Strategy push_all_static();           // Fig 3: first party pushes its statics
Strategy vroom();                     // the full system
// Vroom served from a shared front-end's hint cache: offline-only advice
// resolved `hint_age` before serve time (deploy::FrontEnd staleness cells).
Strategy vroom_stale_hints(sim::Time hint_age);
Strategy vroom_first_party_only();    // §6.1 incremental deployment
Strategy vroom_prev_load_deps();      // Fig 17: deps from one prior load
Strategy vroom_offline_only();        // §4.1 strawman 2 (used in Fig 21 too)
Strategy vroom_online_only();         // §4.1 strawman 1
Strategy push_high_prio_no_hints();   // Fig 18
Strategy push_all_no_hints();         // Fig 18
Strategy push_all_fetch_asap();       // Fig 19 strawman
Strategy polaris();                   // Fig 14
Strategy vroom_plus_polaris();        // §6.1 future-work combination
Strategy lower_bound_network();       // Fig 2
Strategy lower_bound_cpu();           // Fig 2

}  // namespace vroom::baselines

//! Benchmark-side assembly of the traced system.
//!
//! `SystemBuilder::build` constructs the L1s, bridges and global
//! directory itself, so wrapping them needs an assembly of our own. This
//! one mirrors `c3_bench::build_sim` (and the `SystemBuilder::build` it
//! calls) step by step, using only public constructors and the `Fabric`
//! route API, and wraps every component in a [`Probe`]. Component ids,
//! link ids, route order and RNG seeds are the same, so the traced
//! simulation delivers the same events and renders the same report as
//! the library's; `run_traced` checks that on every traced cell.

use std::time::{Duration, Instant};

use c3::bridge::{BridgeConfig, C3Bridge, GlobalSide};
use c3::system::{GlobalProtocol, SystemHandles};
use c3_bench::RunConfig;
use c3_cxl::CxlDirectory;
use c3_mcm::core_model::{CoreConfig, TimingCore};
use c3_memsys::{GlobalMesiDir, L1Config, L1Controller};
use c3_protocol::msg::SysMsg;
use c3_protocol::ssp::SspSpec;
use c3_sim::component::ComponentId;
use c3_sim::fabric::LinkConfig;
use c3_sim::kernel::Simulator;
use c3_sim::time::Delay;
use c3_workloads::WorkloadSpec;

use crate::probe::{Layer, Probe, Sink};

/// `SystemBuilder`'s device memory latency (not settable from `RunConfig`).
const MEM_LATENCY: Delay = Delay::from_ns(10);

/// A traced simulation ready to run.
pub struct TracedSystem {
    /// The simulator, every component wrapped.
    pub sim: Simulator<SysMsg>,
    /// Component ids, as `build_sim` returns them.
    pub handles: SystemHandles,
    /// Where the probes deliver their counts when `sim` is dropped.
    pub sink: Sink,
    /// Host time inside `WorkloadSpec::generate`.
    pub generate: Duration,
    /// Host time of the rest of the assembly.
    pub build: Duration,
}

/// Spans kept per traced cell at most (32 bytes each), shared evenly
/// among its components.
pub const SPAN_CAP: usize = 1 << 20;

/// Assemble `spec` under `cfg` exactly as `c3_bench::build_sim` does,
/// with every component wrapped. With `spans` set, probes keep one span
/// per call (timed from the assembly's start), up to [`SPAN_CAP`].
pub fn build_traced(spec: &WorkloadSpec, cfg: &RunConfig, spans: bool) -> TracedSystem {
    let t0 = Instant::now();
    let components = 1 + cfg.clusters * (1 + 2 * cfg.cores_per_cluster);
    let epoch = spans.then_some((t0, SPAN_CAP / components));
    let sink = Sink::default();
    let mut generate = Duration::ZERO;
    let mut sim: Simulator<SysMsg> = Simulator::new(cfg.seed);
    let nthreads = cfg.cores_per_cluster * cfg.clusters;
    let family_of = |ci: usize| {
        if ci.is_multiple_of(2) {
            cfg.protocols.0
        } else {
            cfg.protocols.1
        }
    };

    // Id layout: the global directory, then per cluster the bridge and
    // (l1, core) pairs.
    let dir = ComponentId(0);
    let mut next = 1u32;
    let mut bridges = Vec::new();
    let mut l1s: Vec<Vec<ComponentId>> = Vec::new();
    let mut cores: Vec<Vec<ComponentId>> = Vec::new();
    for _ in 0..cfg.clusters {
        bridges.push(ComponentId(next));
        next += 1;
        let ids: Vec<u32> = (0..cfg.cores_per_cluster as u32)
            .map(|k| next + 2 * k)
            .collect();
        l1s.push(ids.iter().map(|&i| ComponentId(i)).collect());
        cores.push(ids.iter().map(|&i| ComponentId(i + 1)).collect());
        next += 2 * cfg.cores_per_cluster as u32;
    }

    let global = match cfg.global {
        GlobalProtocol::Cxl => Probe::wrap(
            Box::new(CxlDirectory::new("cxl.dcoh", MEM_LATENCY)),
            Layer::Dcoh,
            dir,
            &sink,
            epoch,
        ),
        GlobalProtocol::Hierarchical(family) => Probe::wrap(
            Box::new(GlobalMesiDir::new(
                "global.dir",
                SspSpec::for_family(family).dir,
                MEM_LATENCY,
            )),
            Layer::Gdir,
            dir,
            &sink,
            epoch,
        ),
    };
    assert_eq!(sim.add_component(global), dir);

    for ci in 0..cfg.clusters {
        let peers: Vec<ComponentId> = std::iter::once(dir)
            .chain(bridges.iter().copied().filter(|&b| b != bridges[ci]))
            .collect();
        let global = match cfg.global {
            GlobalProtocol::Cxl => GlobalSide::Cxl { dirs: vec![dir] },
            GlobalProtocol::Hierarchical(family) => GlobalSide::Host { dir, family },
        };
        let bridge = C3Bridge::new(
            format!("c{ci}.bridge"),
            BridgeConfig {
                host_family: family_of(ci),
                global,
                cxl_sets: cfg.cxl_cache.0,
                cxl_ways: cfg.cxl_cache.1,
                global_peers: peers,
                resilience: None,
            },
        );
        let wrapped = Probe::wrap(Box::new(bridge), Layer::Bridge, bridges[ci], &sink, epoch);
        assert_eq!(sim.add_component(wrapped), bridges[ci]);
        for k in 0..cfg.cores_per_cluster {
            let l1 = L1Controller::new(
                format!("c{ci}.l1.{k}"),
                L1Config {
                    family: family_of(ci),
                    sets: cfg.l1.0,
                    ways: cfg.l1.1,
                    hit_latency: Delay::from_cycles(1, 2_000),
                    core: cores[ci][k],
                    dir: bridges[ci],
                },
            );
            let wrapped = Probe::wrap(Box::new(l1), Layer::L1, l1s[ci][k], &sink, epoch);
            assert_eq!(sim.add_component(wrapped), l1s[ci][k]);

            let thread = ci * cfg.cores_per_cluster + k;
            let mcm = if ci.is_multiple_of(2) {
                cfg.mcms.0
            } else {
                cfg.mcms.1
            };
            let g0 = Instant::now();
            let program = spec.generate(thread, nthreads, cfg.ops_per_core, cfg.seed);
            generate += g0.elapsed();
            let core = TimingCore::new(
                format!("c{ci}.core{k}"),
                l1s[ci][k],
                CoreConfig::new(mcm, family_of(ci)),
                program,
                cfg.seed ^ (thread as u64) << 32,
            );
            let wrapped = Probe::wrap(Box::new(core), Layer::Core, cores[ci][k], &sink, epoch);
            assert_eq!(sim.add_component(wrapped), cores[ci][k]);
        }
    }

    // Wiring, in SystemBuilder::build's order (link ids must match).
    for ci in 0..cfg.clusters {
        let mut nodes = l1s[ci].clone();
        nodes.push(bridges[ci]);
        sim.fabric_mut()
            .wire_p2p(&nodes, &LinkConfig::intra_cluster());
        for k in 0..cfg.cores_per_cluster {
            sim.fabric_mut().set_affinity(cores[ci][k], l1s[ci][k]);
        }
    }
    let ordered = LinkConfig {
        ordered: true,
        jitter: Delay::ZERO,
        latency: cfg.link_latency,
        ..LinkConfig::cxl()
    };
    let s2m = match cfg.global {
        GlobalProtocol::Cxl if !cfg.ordered_s2m => LinkConfig {
            latency: cfg.link_latency,
            ..LinkConfig::cxl()
        },
        _ => ordered.clone(),
    };
    let cxl_start = sim.fabric_mut().link_count();
    for &b in &bridges {
        let up = vec![
            sim.fabric_mut().add_link(ordered.clone()),
            sim.fabric_mut().add_link(ordered.clone()),
        ];
        sim.fabric_mut().set_route(b, dir, up);
        let down = vec![
            sim.fabric_mut().add_link(s2m.clone()),
            sim.fabric_mut().add_link(s2m.clone()),
        ];
        sim.fabric_mut().set_route(dir, b, down);
    }
    let cxl_links = cxl_start..sim.fabric_mut().link_count();
    for &a in &bridges {
        for &b in &bridges {
            if a != b {
                let route = vec![
                    sim.fabric_mut().add_link(ordered.clone()),
                    sim.fabric_mut().add_link(ordered.clone()),
                ];
                sim.fabric_mut().set_route(a, b, route);
            }
        }
    }
    let handles = SystemHandles {
        cores,
        l1s,
        bridges,
        global_dir: dir,
        global_dirs: vec![dir],
        global: cfg.global,
        protocols: (0..cfg.clusters).map(family_of).collect(),
        cxl_links,
    };

    // The rest of build_sim.
    sim.set_event_limit(400_000_000);
    if cfg.state_metrics {
        for &l1 in handles.l1s.iter().flatten() {
            if let Some(c) = sim.component_as_mut::<L1Controller>(l1) {
                c.set_state_metrics(true);
            }
        }
        for &b in &handles.bridges {
            if let Some(c) = sim.component_as_mut::<C3Bridge>(b) {
                c.set_state_metrics(true);
            }
        }
        if let Some(c) = sim.component_as_mut::<CxlDirectory>(dir) {
            c.set_state_metrics(true);
        }
        if let Some(c) = sim.component_as_mut::<GlobalMesiDir>(dir) {
            c.set_state_metrics(true);
        }
    }
    if let Some(interval) = cfg.metrics_interval {
        sim.set_metrics(interval);
        sim.metrics_mut()
            .set_vnet_lanes(c3_protocol::msg::SYS_VNET_LANES.to_vec());
    }
    let build = t0.elapsed().saturating_sub(generate);
    TracedSystem {
        sim,
        handles,
        sink,
        generate,
        build,
    }
}

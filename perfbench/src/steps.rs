//! The traced Themis step driver.
//!
//! [`ThemisSteps`] makes the same public calls as
//! `themis_core::scheduler::ThemisScheduler::schedule`, in the same order,
//! and wraps each of the five steps in a span. The benchmark checks that a
//! simulation driven by it reports byte for byte what the untraced
//! `themis` policy reports, so it can never time work the real policy does
//! not do.

use crate::spans::{Name, Recorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use themis_cluster::cluster::Cluster;
use themis_cluster::ids::{AppId, GpuId};
use themis_cluster::time::Time;
use themis_cluster::view::ClusterState;
use themis_core::agent::Agent;
use themis_core::arbiter::{AppStatus, Arbiter};
use themis_core::auction::SolverKind;
use themis_core::config::ThemisConfig;
use themis_protocol::bid::BidTable;
use themis_sim::arena::AppArena;
use themis_sim::scheduler::{AllocationDecision, Scheduler};

/// Work counts of the Themis steps, summed over a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// `Agent::current_rho` calls.
    pub rho_calls: u64,
    /// Auction participants, summed over auctions.
    pub participants: u64,
    /// Bid-table entries (`BidTable::len`), summed over bids.
    pub bid_entries: u64,
    /// `Arbiter::run_auction` calls.
    pub auctions: u64,
    /// Auctions the exact solver decided.
    pub exact_solves: u64,
    /// Auctions the greedy fallback decided.
    pub greedy_solves: u64,
    /// GPUs withheld as hidden payments: proportional-fair minus awarded.
    pub withheld_gpus: u64,
    /// GPUs handed out by the leftover assignment.
    pub leftover_gpus: u64,
    /// Free GPUs offered to the auctions.
    pub offered_gpus: u64,
    /// GPUs granted in the decisions returned.
    pub granted_gpus: u64,
}

/// Themis, driven step by step from the benchmark.
pub struct ThemisSteps {
    config: ThemisConfig,
    arbiter: Arbiter,
    agents: BTreeMap<AppId, Agent>,
    recorder: Rc<Recorder>,
    counts: Rc<RefCell<StepCounts>>,
}

impl ThemisSteps {
    /// A driver with the same configuration the `themis` policy is built
    /// with, adding its counts to `counts`.
    pub fn new(
        config: ThemisConfig,
        recorder: Rc<Recorder>,
        counts: Rc<RefCell<StepCounts>>,
    ) -> Self {
        ThemisSteps {
            arbiter: Arbiter::new(config),
            agents: BTreeMap::new(),
            config,
            recorder,
            counts,
        }
    }

    fn agent_for(&mut self, app: AppId) -> &mut Agent {
        let config = self.config;
        self.agents
            .entry(app)
            .or_insert_with(|| Agent::new(app, &config))
    }
}

impl Scheduler for ThemisSteps {
    fn name(&self) -> &'static str {
        "themis"
    }

    fn schedule(
        &mut self,
        now: Time,
        cluster: &Cluster,
        apps: &AppArena,
    ) -> Vec<AllocationDecision> {
        let recorder = Rc::clone(&self.recorder);
        let call = recorder.call();
        let offer = cluster.free_vector();
        if offer.is_empty() {
            return Vec::new();
        }
        let mut counts = *self.counts.borrow();

        // 1. ρ probe.
        let span = recorder.open(Name::AgentRho, call);
        let mut statuses: Vec<AppStatus> = Vec::new();
        for runtime in apps.iter().filter(|a| a.is_schedulable(now)) {
            let app = runtime.id();
            let rho = self.agent_for(app).current_rho(now, runtime, cluster).rho;
            counts.rho_calls += 1;
            statuses.push(AppStatus {
                app,
                rho,
                unmet_demand: runtime.unmet_demand(cluster),
                footprint: cluster.gpus_of_app(app).machines(cluster.spec()),
            });
        }
        recorder.close(span);
        if statuses.iter().all(|s| s.unmet_demand == 0) {
            *self.counts.borrow_mut() = counts;
            return Vec::new();
        }

        // 2. Participants and their bids.
        let span = recorder.open(Name::ArbiterSelect, call);
        let participants = self.arbiter.select_participants(&statuses);
        recorder.close(span);
        counts.participants += participants.len() as u64;

        let span = recorder.open(Name::AgentBid, call);
        let mut bids: Vec<BidTable> = Vec::new();
        for app in &participants {
            let runtime = &apps[*app];
            let bid = self
                .agent_for(*app)
                .prepare_bid(now, runtime, cluster, &offer);
            if !bid.is_empty() {
                bids.push(bid);
            }
        }
        recorder.close(span);
        counts.bid_entries += bids.iter().map(|b| b.len() as u64).sum::<u64>();

        // 3. Auction and leftover assignment.
        let span = recorder.open(Name::ArbiterAuction, call);
        let outcome =
            self.arbiter
                .run_auction(&offer, &statuses, &participants, &bids, cluster.spec());
        recorder.close(span);
        counts.auctions += 1;
        counts.offered_gpus += offer.total() as u64;
        match outcome.auction.solver {
            SolverKind::Exact => counts.exact_solves += 1,
            SolverKind::Greedy => counts.greedy_solves += 1,
        }
        counts.withheld_gpus += outcome
            .auction
            .awards
            .iter()
            .map(|a| {
                a.proportional_fair
                    .total()
                    .saturating_sub(a.awarded.total()) as u64
            })
            .sum::<u64>();
        counts.leftover_gpus += outcome
            .leftover_grants
            .values()
            .map(|g| g.total() as u64)
            .sum::<u64>();

        // 4. Grants to concrete GPUs, against a per-round shadow view.
        let span = recorder.open(Name::Materialize, call);
        let mut shadow = cluster.view();
        let mut decisions = Vec::new();
        for (app, grant) in outcome.into_all_grants() {
            let Some(runtime) = apps.get(app) else {
                continue;
            };
            let shares = self
                .agent_for(app)
                .distribute_award(runtime, &shadow, &grant);
            for (job, share) in shares {
                let mut gpus: Vec<GpuId> = Vec::new();
                for (machine, count) in share {
                    for gpu in shadow.free_gpus_on(machine).into_iter().take(count) {
                        if shadow.allocate(gpu, app, job).is_ok() {
                            gpus.push(gpu);
                        }
                    }
                }
                if !gpus.is_empty() {
                    decisions.push(AllocationDecision { app, job, gpus });
                }
            }
        }
        recorder.close(span);
        counts.granted_gpus += decisions.iter().map(|d| d.gpus.len() as u64).sum::<u64>();
        *self.counts.borrow_mut() = counts;
        decisions
    }
}

//! The simulated cloud: pools, markets, instances, and the tick loop
//! that advances demand, clears every spot market, and drives
//! revocations.
//!
//! [`Cloud`] owns all dynamic state. Requests arrive through the API
//! methods in [`crate::api`]; the engine (or any driver) calls
//! [`Cloud::tick`] to advance time one demand step and then drains
//! [`Cloud::drain_events_into`] for what happened.
//!
//! # The region-sharded ownership model
//!
//! Pools, markets, demand processes, and spot requests partition cleanly
//! by region: a pool's siblings live in the same region, demand spills
//! only between sibling zones, region surges touch one region, and a
//! spot request targets a single market. The cloud therefore stores all
//! dynamic state in one `RegionShard` per catalog region. A shard owns
//!
//! * its pools and markets (with shard-local index vectors and lookup
//!   maps — `PoolEntry::market_indices` and `MarketEntry::pool_idx` are
//!   shard-local indices),
//! * the region's demand process, API token bucket and service-limit
//!   counters, and open spot requests,
//! * its own [`SimRng`] stream, forked per region at construction, and
//! * local output buffers: a `CloudEvent` buffer plus trace-op and
//!   billing-charge buffers that cannot be written to the shared
//!   [`TraceStore`]/[`Ledger`] mid-tick.
//!
//! [`Cloud::tick`] fans the shards out across the **shared persistent
//! worker pool** ([`spotlight_pool::WorkerPool`]) — up to
//! [`crate::config::SimConfig::threads`] worker groups per tick; `1`
//! runs them inline with no cross-thread dispatch at all — and then
//! merges every shard's buffered events, trace ops, and charges in
//! ascending region order. Dispatch to the pool's parked workers is a
//! queue push + wakeup (`pool.dispatch_us` in the traced pass of
//! `benchmark/run.sh`), and the HTTP service and snapshot builder share
//! the same pool, sized once to the host.
//!
//! # The determinism contract
//!
//! Same seed + same config ⇒ identical event stream, prices, traces,
//! and billing **at any thread count**. This holds because (a) each
//! shard only ever draws from its own RNG stream, in a fixed shard-local
//! phase order, (b) shards never touch another shard's state during the
//! parallel phase, and (c) the merge order is the fixed region order,
//! not completion order. `threads` moves wall-clock time only. The
//! `tests/determinism.rs` property test and
//! `cloud::tests::tick_is_thread_count_invariant` guard this contract;
//! keep any new tick-path randomness on the shard's stream and any new
//! cross-shard output in a merged buffer.
//!
//! # The no-allocation tick contract
//!
//! `Cloud::tick` is the simulator's hot path: the repro experiments run
//! it millions of times, so the steady-state tick performs **no heap
//! allocation** (with `threads = 1`; higher settings pay one boxed
//! pool task per worker group plus the worker-group vector per tick —
//! the persistent pool's dispatch cost).
//! Concretely:
//!
//! * the demand profile, level grid, and per-pool market indices are
//!   only *borrowed* during a tick — never cloned (shards receive a
//!   shared `TickCtx` of read-only state);
//! * static topology (pools per region, sibling pools, market indices)
//!   is precomputed once in [`Cloud::new`];
//! * per-tick working sets reuse scratch buffers owned by each shard
//!   (`scratch` for bid-level masses, `request_scratch` for the active
//!   spot-request sweep), and the per-shard event/trace/charge buffers
//!   keep their capacity across the per-tick drain.
//!
//! `events` and the per-request bookkeeping may still allocate when
//! *new* work appears (an event is emitted, a request is admitted) —
//! amortized by `Vec` growth — but a quiescent tick allocates nothing.
//! Keep it that way: anything added to the tick path should either
//! borrow or reuse a scratch buffer; `sim.tick_t1_us` in the traced
//! pass of `benchmark/run.sh` is where a broken budget shows.

use crate::billing::{Ledger, UsageKind};
use crate::catalog::Catalog;
use crate::chaos::ChaosState;
use crate::config::{DemandProfile, SimConfig, PARALLEL_AUTO_MIN_MARKETS};
use crate::demand::{surge_weights, LevelGrid, MarketDemand, PoolDemand, RegionDemand, Surge};
use crate::ids::{Family, InstanceId, MarketId, PoolId, SpotRequestId};
use crate::lifecycle::{OdState, SpotRequestState, Tracked};
use crate::market::{clear_with_total, MarketState};
use crate::pool::CapacityPool;
use crate::price::Price;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceStore;
use spotlight_pool::WorkerPool;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Something observable that happened inside the cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CloudEvent {
    /// A market's published spot price changed.
    PriceChange {
        /// The market whose price changed.
        market: MarketId,
        /// The previous published price.
        previous: Price,
        /// The new published price.
        price: Price,
        /// When the new price became visible.
        at: SimTime,
    },
    /// A spot instance received its two-minute revocation warning.
    SpotRevocationWarning {
        /// The owning request.
        request: SpotRequestId,
        /// The market the instance runs in.
        market: MarketId,
        /// When the warning was issued.
        at: SimTime,
        /// When the instance will be reclaimed.
        terminate_at: SimTime,
    },
    /// A spot instance was reclaimed because the price exceeded its bid.
    SpotTerminatedByPrice {
        /// The owning request.
        request: SpotRequestId,
        /// The market the instance ran in.
        market: MarketId,
        /// When the instance was reclaimed.
        at: SimTime,
    },
    /// A held spot request changed status during re-evaluation.
    SpotRequestUpdate {
        /// The request.
        request: SpotRequestId,
        /// The market it targets.
        market: MarketId,
        /// Its new status.
        status: SpotRequestState,
        /// When the status changed.
        at: SimTime,
    },
    /// Ground truth: a pool ran out of on-demand capacity.
    PoolShortageStarted {
        /// The pool.
        pool: PoolId,
        /// When the shortage began.
        at: SimTime,
    },
    /// Ground truth: a pool's on-demand shortage ended.
    PoolShortageEnded {
        /// The pool.
        pool: PoolId,
        /// When the shortage ended.
        at: SimTime,
    },
    /// Advance notice that a market's capacity will be reclaimed (a
    /// chaos-injected eviction, modelling the interruption notices real
    /// providers emit ahead of capacity reclaims). Running spot
    /// instances in the market receive revocation warnings with the
    /// same deadline, and the pool withholds spot capacity for the
    /// configured hold once the reclaim lands.
    CapacityEvictionNotice {
        /// The market losing capacity.
        market: MarketId,
        /// When the notice was issued.
        at: SimTime,
        /// When the capacity will be reclaimed.
        evict_at: SimTime,
    },
}

/// One capacity pool with its demand process and clearing bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct PoolEntry {
    pub id: PoolId,
    pub pool: CapacityPool,
    pub demand: PoolDemand,
    /// Shard-local indices of this pool's member markets.
    pub market_indices: Vec<usize>,
    /// Mean spot/od price ratio of member markets after the last tick.
    pub last_ratio: f64,
    /// End of the current reclaim (spot → od shift) window.
    pub reclaim_until: SimTime,
    /// Demand spilled toward this pool for the next tick, in units.
    pub spill_next: f64,
    /// Whether a ground-truth shortage interval is open.
    pub shortage_open: bool,
    /// End of the current parked (capacity-withholding) state.
    pub parked_until: SimTime,
}

/// One spot market with its demand process.
#[derive(Debug, Clone)]
pub(crate) struct MarketEntry {
    pub id: MarketId,
    pub state: MarketState,
    pub demand: MarketDemand,
    /// Shard-local index of the owning pool.
    pub pool_idx: usize,
    pub volatility: f64,
}

/// An externally launched on-demand instance.
#[derive(Debug, Clone)]
pub struct OdInstance {
    /// Instance id.
    pub id: InstanceId,
    /// The market it runs in.
    pub market: MarketId,
    /// Capacity units it occupies.
    pub units: u32,
    /// Launch time.
    pub launched_at: SimTime,
    /// Lifecycle state (Figure 3.1).
    pub state: Tracked<OdState>,
}

/// An externally submitted spot instance request.
#[derive(Debug, Clone)]
pub struct SpotRequest {
    /// Request id.
    pub id: SpotRequestId,
    /// The market it targets.
    pub market: MarketId,
    /// The maximum price the requester will pay.
    pub bid: Price,
    /// Capacity units per instance.
    pub units: u32,
    /// Lifecycle state (Figure 3.2).
    pub state: Tracked<SpotRequestState>,
    /// The launched instance, if fulfilled.
    pub instance: Option<InstanceId>,
    /// When the instance launched.
    pub launched_at: Option<SimTime>,
    /// The spot price at launch (the billing rate).
    pub launch_price: Option<Price>,
    /// When a marked instance will be reclaimed.
    pub terminate_at: Option<SimTime>,
}

/// Per-region API bookkeeping: token-bucket rate limiting and service
/// limits (Chapter 4).
#[derive(Debug, Clone)]
pub(crate) struct RegionApiState {
    pub tokens: f64,
    pub last_refill: SimTime,
    pub od_running: u32,
    pub spot_open: u32,
}

impl RegionApiState {
    fn new() -> Self {
        RegionApiState {
            tokens: 0.0,
            last_refill: SimTime::ZERO,
            od_running: 0,
            spot_open: 0,
        }
    }

    /// Empties the bucket and restarts refill accounting from `now` —
    /// a chaos throttling storm pins the bucket here on every call, so
    /// post-storm recovery starts from zero tokens.
    pub fn drain(&mut self, now: SimTime) {
        self.tokens = 0.0;
        self.last_refill = now;
    }

    /// Refills the bucket up to one minute's burst and consumes a token.
    pub fn try_consume(&mut self, now: SimTime, per_minute: u32) -> bool {
        let burst = per_minute as f64;
        let elapsed = now.saturating_since(self.last_refill).as_secs() as f64;
        self.tokens = (self.tokens + elapsed * per_minute as f64 / 60.0).min(burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// High bit distinguishing spot instance ids (derived from their request
/// id inside a shard, where the global id counter is unreachable) from
/// sequentially allocated on-demand instance ids.
const SPOT_INSTANCE_BIT: u64 = 1 << 63;

/// First stream id of the per-region RNG streams (stream 0 is the root,
/// 1 was the pre-sharding global demand stream).
const REGION_STREAM_BASE: u64 = 2;

/// First stream id of the per-region *chaos* RNG streams (see
/// [`crate::chaos`]). Forked from the root after the demand streams, so
/// enabling chaos never perturbs a seed's demand trajectory, and each
/// region's chaos draws stay shard-local (the determinism contract).
const CHAOS_STREAM_BASE: u64 = 16;

/// A buffered [`TraceStore`] write, applied at merge time because the
/// store is shared across shards.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    Price(MarketId, SimTime, Price),
    ShortageStarted(PoolId, SimTime),
    ShortageEnded(PoolId, SimTime),
}

/// A buffered [`Ledger`] charge, applied at merge time because the
/// ledger is shared across shards.
#[derive(Debug, Clone, Copy)]
struct PendingCharge {
    at: SimTime,
    market: MarketId,
    kind: UsageKind,
    used: SimDuration,
    rate: Price,
}

/// Read-only state every shard borrows during one tick.
struct TickCtx<'a> {
    config: &'a SimConfig,
    level_grid: &'a LevelGrid,
    surge_dist: &'a [f64],
    trace: &'a TraceStore,
    now: SimTime,
    dt: SimDuration,
}

impl TickCtx<'_> {
    fn profile(&self) -> &DemandProfile {
        &self.config.demand
    }
}

/// One region's slice of the cloud: every piece of dynamic state the
/// tick loop touches for that region, plus the region's RNG stream and
/// output buffers. See the module docs for the ownership model.
pub(crate) struct RegionShard {
    /// Dense [`crate::ids::Region::index`] of this shard.
    pub region_idx: usize,
    pub pools: Vec<PoolEntry>,
    pub markets: Vec<MarketEntry>,
    pub pool_index: HashMap<PoolId, usize>,
    pub market_index: HashMap<MarketId, usize>,
    /// Pools of the same family in this region, per pool (local indices).
    pub sibling_pools: Vec<Vec<usize>>,
    pub region_demand: RegionDemand,
    pub api: RegionApiState,
    pub spot_requests: HashMap<SpotRequestId, SpotRequest>,
    /// Non-terminal spot requests, re-evaluated every tick.
    pub active_spot: BTreeSet<SpotRequestId>,
    /// This region's RNG stream; every draw on the tick path happens
    /// here, in shard-local phase order.
    pub rng: SimRng,
    /// This region's fault-injection runtime, with its own RNG stream.
    pub chaos: ChaosState,
    /// Events held back by chaos-injected delivery delay, as
    /// `(release_at, event)` in emission order.
    delayed_events: Vec<(SimTime, CloudEvent)>,
    /// Chaos evictions announced but not yet landed, as
    /// `(evict_at, local pool index)`.
    pending_evictions: Vec<(SimTime, usize)>,
    /// Events emitted this tick, merged into [`Cloud::events`] in region
    /// order after the parallel phase.
    events: Vec<CloudEvent>,
    /// Buffered trace writes (the `TraceStore` is shared).
    trace_ops: Vec<TraceOp>,
    /// Buffered ledger charges (the `Ledger` is shared).
    charges: Vec<PendingCharge>,
    /// Reusable bid-level mass buffer for market clearing.
    scratch: Vec<f64>,
    /// Reusable request-id buffer for the per-tick spot-request sweep.
    request_scratch: Vec<SpotRequestId>,
}

impl RegionShard {
    fn new(region_idx: usize, rng: SimRng, chaos: ChaosState, n_levels: usize) -> Self {
        RegionShard {
            region_idx,
            pools: Vec::new(),
            markets: Vec::new(),
            pool_index: HashMap::new(),
            market_index: HashMap::new(),
            sibling_pools: Vec::new(),
            region_demand: RegionDemand::new(),
            api: RegionApiState::new(),
            spot_requests: HashMap::new(),
            active_spot: BTreeSet::new(),
            rng,
            chaos,
            delayed_events: Vec::new(),
            pending_evictions: Vec::new(),
            events: Vec::new(),
            trace_ops: Vec::new(),
            charges: Vec::new(),
            scratch: vec![0.0; n_levels],
            request_scratch: Vec::new(),
        }
    }

    /// One full demand step for this region. Touches only shard-owned
    /// state plus the read-only [`TickCtx`]; all shared-store writes go
    /// to the shard's output buffers.
    fn tick(&mut self, ctx: &TickCtx<'_>) {
        if self.chaos.enabled() {
            self.chaos_pre_tick(ctx);
        }
        self.publish_due_prices(ctx);
        self.region_demand.tick(ctx.profile(), &mut self.rng);
        self.update_pools(ctx);
        self.clear_markets(ctx);
        self.spawn_surges(ctx);
        self.process_spot_requests(ctx);
        self.gc_terminal_requests();
        if self.chaos.enabled() {
            self.chaos_post_tick(ctx);
        }
    }

    /// Chaos phase A, before the demand step: deliver delayed events
    /// that have come due, land announced evictions (the pool withholds
    /// spot capacity for the configured hold), and draw new evictions —
    /// each announced with a [`CloudEvent::CapacityEvictionNotice`] and
    /// revocation warnings for the market's running spot instances,
    /// both carrying the eviction deadline. All draws come from the
    /// shard's chaos stream, in shard-local phase order.
    fn chaos_pre_tick(&mut self, ctx: &TickCtx<'_>) {
        let now = ctx.now;

        // Delayed deliveries, preserving emission order. The shard's
        // event buffer was drained at the last merge, so released
        // events precede everything this tick emits.
        let mut i = 0;
        while i < self.delayed_events.len() {
            if self.delayed_events[i].0 <= now {
                let (_, ev) = self.delayed_events.remove(i);
                self.events.push(ev);
            } else {
                i += 1;
            }
        }

        let Some(profile) = self.chaos.evictions else {
            return;
        };

        // Announced evictions land: park the pool so new spot requests
        // see capacity-not-available for the hold.
        let hold = profile.hold;
        let mut i = 0;
        while i < self.pending_evictions.len() {
            if self.pending_evictions[i].0 <= now {
                let (_, pi) = self.pending_evictions.remove(i);
                let parked = &mut self.pools[pi].parked_until;
                *parked = (*parked).max(now + hold);
            } else {
                i += 1;
            }
        }

        // Draw new evictions per market. Fixed market order keeps the
        // draw sequence identical at any thread count.
        let dt_days = ctx.dt.as_secs() as f64 / 86_400.0;
        let rate = profile.rate_per_market_day;
        for mi in 0..self.markets.len() {
            if !self.chaos.rng.chance(rate * dt_days) {
                continue;
            }
            let market = self.markets[mi].id;
            let evict_at = now + profile.notice_lead;
            self.events.push(CloudEvent::CapacityEvictionNotice {
                market,
                at: now,
                evict_at,
            });
            self.pending_evictions
                .push((evict_at, self.markets[mi].pool_idx));
            // Running instances in the market get their warning now,
            // with the eviction deadline instead of the standard price
            // warning.
            let evicted: Vec<SpotRequestId> = self
                .active_spot
                .iter()
                .copied()
                .filter(|id| {
                    self.spot_requests.get(id).is_some_and(|r| {
                        r.market == market && r.state.current() == SpotRequestState::Fulfilled
                    })
                })
                .collect();
            for id in evicted {
                let req = self.spot_requests.get_mut(&id).expect("just matched");
                req.state
                    .transition(SpotRequestState::MarkedForTermination, now)
                    .expect("fulfilled -> marked is legal");
                req.terminate_at = Some(evict_at);
                self.events.push(CloudEvent::SpotRevocationWarning {
                    request: id,
                    market,
                    at: now,
                    terminate_at: evict_at,
                });
            }
        }
    }

    /// Chaos phase B, after the demand step: hold back a slice of this
    /// tick's emitted events for delayed delivery. Only *delivery*
    /// lags — event timestamps and the price trace stay truthful, the
    /// way a slow notification pipeline lags the published history.
    fn chaos_post_tick(&mut self, ctx: &TickCtx<'_>) {
        let Some(delay) = self.chaos.delay else {
            return;
        };
        let mut i = 0;
        while i < self.events.len() {
            if self.chaos.rng.chance(delay.probability) {
                let ev = self.events.remove(i);
                let ticks = self
                    .chaos
                    .rng
                    .uniform_usize(1, delay.max_delay_ticks as usize + 1)
                    as u64;
                let release_at = ctx.now + SimDuration::from_secs(ticks * ctx.dt.as_secs());
                self.delayed_events.push((release_at, ev));
            } else {
                i += 1;
            }
        }
    }

    fn publish_due_prices(&mut self, ctx: &TickCtx<'_>) {
        let now = ctx.now;
        for m in &mut self.markets {
            let previous = m.state.published_price();
            if let Some(price) = m.state.publish_due(now) {
                let at = now; // published within the elapsed tick
                if ctx.trace.is_watched(m.id) {
                    self.trace_ops.push(TraceOp::Price(m.id, at, price));
                }
                self.events.push(CloudEvent::PriceChange {
                    market: m.id,
                    previous,
                    price,
                    at,
                });
            }
        }
    }

    fn update_pools(&mut self, ctx: &TickCtx<'_>) {
        let profile = ctx.profile();
        let now = ctx.now;
        let warning = ctx.config.revocation_warning;
        let busy = self.region_demand.busy();
        let aggressiveness = profile.park_region_aggressiveness[self.region_idx];
        let dt_days = ctx.dt.as_secs() as f64 / 86_400.0;
        for i in 0..self.pools.len() {
            // Apply spill-in scheduled by siblings last tick.
            let spill = self.pools[i].spill_next;
            self.pools[i].spill_next = 0.0;
            self.pools[i].demand.spill_in += spill;

            let targets = self.pools[i].demand.tick(now, profile, busy, &mut self.rng);

            // Parking: a persistent capacity-withholding state the
            // operator enters during low-price regimes (§5.3) and leaves
            // after a lognormal-distributed episode.
            let ratio = self.pools[i].last_ratio;
            if now >= self.pools[i].parked_until
                && ratio < profile.park_ratio_hi
                && aggressiveness > 0.0
            {
                let rate = profile.park_enter_rate_per_day
                    * aggressiveness
                    * (1.0 - ratio / profile.park_ratio_hi);
                if self.rng.chance(rate * dt_days) {
                    let dur = self
                        .rng
                        .lognormal_median(
                            profile.park_duration_median_secs,
                            profile.park_duration_sigma,
                        )
                        .max(300.0) as u64;
                    self.pools[i].parked_until = now + SimDuration::from_secs(dur);
                }
            }
            let parked_frac = if now < self.pools[i].parked_until {
                1.0
            } else {
                0.0
            };

            let displaced = self.pools[i].pool.apply_demand(
                targets.reserved_units,
                targets.od_units,
                parked_frac,
            );

            if displaced > 0 {
                self.pools[i].pool.set_reclaiming(true);
                self.pools[i].reclaim_until = now + warning;
            } else if now >= self.pools[i].reclaim_until {
                self.pools[i].pool.set_reclaiming(false);
            }

            // Ground-truth shortage intervals + spill-over to siblings.
            let short = self.pools[i].pool.od_shortage();
            if short && !self.pools[i].shortage_open {
                self.pools[i].shortage_open = true;
                self.trace_ops
                    .push(TraceOp::ShortageStarted(self.pools[i].id, now));
                self.events.push(CloudEvent::PoolShortageStarted {
                    pool: self.pools[i].id,
                    at: now,
                });
            } else if !short && self.pools[i].shortage_open {
                self.pools[i].shortage_open = false;
                self.trace_ops
                    .push(TraceOp::ShortageEnded(self.pools[i].id, now));
                self.events.push(CloudEvent::PoolShortageEnded {
                    pool: self.pools[i].id,
                    at: now,
                });
            }
            if short {
                let unmet = self.pools[i].pool.od_unmet() as f64;
                let siblings = &self.sibling_pools[i];
                if !siblings.is_empty() {
                    let share = profile.spill_fraction * unmet / siblings.len() as f64;
                    for &j in siblings {
                        self.pools[j].spill_next += share;
                    }
                }
            }
        }
    }

    fn clear_markets(&mut self, ctx: &TickCtx<'_>) {
        let profile = ctx.profile();
        let now = ctx.now;
        let (lag_lo, lag_hi) = ctx.config.price_lag_secs;
        let multiples = &profile.level_multiples;

        for pi in 0..self.pools.len() {
            let supply_units = self.pools[pi].pool.spot_supply() as f64;
            let mut served_units_total = 0.0_f64;
            let mut ratio_sum = 0.0_f64;
            let n_markets = self.pools[pi].market_indices.len();
            for k in 0..n_markets {
                let mi = self.pools[pi].market_indices[k];
                let m = &mut self.markets[mi];
                m.demand.tick(now, profile, &mut self.rng);
                // Fused fill-sum-walk over the fixed-width level
                // arrays: masses are written, totalled, and cleared in
                // one L1-resident pass (bit-identical to the separate
                // `level_masses_into` + `clear` it replaced).
                let total = m.demand.level_masses_and_total_into(
                    ctx.level_grid,
                    m.state.base_mass,
                    ctx.surge_dist,
                    &mut self.scratch,
                );
                let supply_m = supply_units * m.state.weight / m.state.units as f64;
                let clearing = clear_with_total(multiples, &self.scratch, total, supply_m);
                // Draw a propagation lag only when the price actually
                // moves; stable markets skip the randomness entirely.
                let price_moves =
                    m.state.od_price.scale(clearing.price_multiple) != m.state.true_price();
                let lag = if price_moves && lag_hi > lag_lo {
                    self.rng.uniform_range(lag_lo as f64, lag_hi as f64) as u64
                } else {
                    lag_lo
                };
                m.state
                    .apply_clearing(clearing, now, now + SimDuration::from_secs(lag));
                served_units_total += clearing.served * m.state.units as f64;
                ratio_sum += m.state.price_ratio();
            }
            // The operator keeps a sliver of spot supply free of the
            // background market so well-priced new requests can fulfil.
            let cap_units = (supply_units * (1.0 - profile.spot_headroom_frac)).floor();
            self.pools[pi]
                .pool
                .set_spot_market(served_units_total.min(cap_units).round().max(0.0) as u64);
            if n_markets > 0 {
                self.pools[pi].last_ratio = ratio_sum / n_markets as f64;
            }
        }
    }

    fn spawn_surges(&mut self, ctx: &TickCtx<'_>) {
        let profile = ctx.profile();
        let now = ctx.now;
        let dt_days = ctx.dt.as_secs() as f64 / 86_400.0;

        // Zone-local pool surges: rare, heavy-tailed, uncorrelated.
        for i in 0..self.pools.len() {
            let pressure = profile.pool_pressure(self.pools[i].id);
            let vol = profile.family_volatility(self.pools[i].id.family);
            let rate = profile.pool_surge_rate_per_day
                * vol.sqrt()
                * pressure.powf(profile.surge_rate_pressure_exp);
            if self.rng.chance(rate * dt_days) {
                let magnitude = (self
                    .rng
                    .pareto(profile.surge_magnitude_scale, profile.surge_magnitude_alpha)
                    * pressure.powf(profile.surge_magnitude_pressure_exp))
                .min(profile.surge_magnitude_cap);
                // Specialized families suffer longer shortages (the
                // heavy Figure 5.9 tail and the chronic d2/g2 outages of
                // the case studies).
                let duration = (self.rng.lognormal_median(
                    profile.surge_duration_median_secs,
                    profile.surge_duration_sigma,
                ) * vol)
                    .max(60.0) as u64;
                self.pools[i].demand.add_surge(Surge {
                    magnitude,
                    ends_at: now + SimDuration::from_secs(duration),
                });
            }
        }

        // Region-wide family surges: moderate, correlated across zones.
        // The shard *is* the region, so every local pool is a candidate.
        if !self.pools.is_empty() {
            let pressure = profile.region_pressure[self.region_idx];
            let rate =
                profile.region_surge_rate_per_day * pressure.powf(profile.surge_rate_pressure_exp);
            if self.rng.chance(rate * dt_days) {
                let anchor = self.rng.uniform_usize(0, self.pools.len());
                let family = self.pools[anchor].id.family;
                let base_mag = (self
                    .rng
                    .pareto(profile.surge_magnitude_scale, profile.surge_magnitude_alpha)
                    * profile.region_surge_attenuation
                    * pressure.powf(profile.surge_magnitude_pressure_exp))
                .min(profile.surge_magnitude_cap);
                let duration = self
                    .rng
                    .lognormal_median(
                        profile.surge_duration_median_secs,
                        profile.surge_duration_sigma,
                    )
                    .max(60.0) as u64;
                for i in 0..self.pools.len() {
                    if self.pools[i].id.family != family {
                        continue;
                    }
                    let jitter = self.rng.uniform_range(0.6, 1.4);
                    let dj = (duration as f64 * self.rng.uniform_range(0.8, 1.2)) as u64;
                    self.pools[i].demand.add_surge(Surge {
                        magnitude: base_mag * jitter,
                        ends_at: now + SimDuration::from_secs(dj),
                    });
                }
            }
        }

        // Spot-side surges per market: price spikes without a shortage.
        for mi in 0..self.markets.len() {
            let vol = self.markets[mi].volatility;
            let rate = profile.spot_surge_rate_per_day * vol.sqrt();
            if self.rng.chance(rate * dt_days) {
                let magnitude = (self
                    .rng
                    .pareto(profile.spot_surge_scale, profile.spot_surge_alpha)
                    * vol.sqrt())
                .min(profile.spot_surge_cap);
                let duration = self
                    .rng
                    .lognormal_median(
                        profile.surge_duration_median_secs,
                        profile.surge_duration_sigma,
                    )
                    .max(60.0) as u64;
                self.markets[mi].demand.add_surge(Surge {
                    magnitude,
                    ends_at: now + SimDuration::from_secs(duration),
                });
            }
        }
    }

    /// Revocations, reclaim terminations, and held-request re-evaluation.
    fn process_spot_requests(&mut self, ctx: &TickCtx<'_>) {
        let now = ctx.now;
        let warning = ctx.config.revocation_warning;
        // Reuse the sweep buffer instead of collecting a fresh Vec, and
        // read everything a dispatch decision needs in ONE map lookup.
        let mut ids = std::mem::take(&mut self.request_scratch);
        ids.clear();
        ids.extend(self.active_spot.iter().copied());
        for &id in &ids {
            let Some(req) = self.spot_requests.get(&id) else {
                continue;
            };
            let market = req.market;
            let bid = req.bid;
            let terminate_due = req.terminate_at.is_some_and(|t| t <= now);
            let state = req.state.current();
            match state {
                SpotRequestState::Fulfilled => {
                    let mi = self.market_index[&market];
                    let price = self.markets[mi].state.true_price();
                    if price > bid {
                        let terminate_at = now + warning;
                        let req = self.spot_requests.get_mut(&id).expect("present");
                        req.state
                            .transition(SpotRequestState::MarkedForTermination, now)
                            .expect("fulfilled -> marked is legal");
                        req.terminate_at = Some(terminate_at);
                        self.events.push(CloudEvent::SpotRevocationWarning {
                            request: id,
                            market,
                            at: now,
                            terminate_at,
                        });
                    }
                }
                SpotRequestState::MarkedForTermination if terminate_due => {
                    self.finish_revocation(id, now);
                }
                s if s.is_held() => {
                    self.reevaluate_held(id, now, ctx.profile());
                }
                _ => {}
            }
        }
        self.request_scratch = ids;
    }

    /// Completes a price revocation: frees capacity, bills (partial hour
    /// free) via the charge buffer, and emits the termination event.
    fn finish_revocation(&mut self, id: SpotRequestId, now: SimTime) {
        let req = self.spot_requests.get_mut(&id).expect("present");
        req.state
            .transition(SpotRequestState::InstanceTerminatedByPrice, now)
            .expect("marked -> terminated-by-price is legal");
        let market = req.market;
        let units = u64::from(req.units);
        let launched = req.launched_at.expect("fulfilled request has launch time");
        let rate = req
            .launch_price
            .expect("fulfilled request has launch price");
        let pi = self.pool_index[&market.pool()];
        self.pools[pi].pool.release_spot_external(units);
        self.charges.push(PendingCharge {
            at: now,
            market,
            kind: UsageKind::SpotRevoked,
            used: now.saturating_since(launched),
            rate,
        });
        self.api.spot_open = self.api.spot_open.saturating_sub(1);
        self.events.push(CloudEvent::SpotTerminatedByPrice {
            request: id,
            market,
            at: now,
        });
    }

    /// Re-evaluates a held spot request against current conditions.
    fn reevaluate_held(&mut self, id: SpotRequestId, now: SimTime, profile: &DemandProfile) {
        let (market, bid, units, old_state) = {
            let r = &self.spot_requests[&id];
            (r.market, r.bid, r.units, r.state.current())
        };
        let outcome = self.evaluate_spot(profile, market, bid, units);
        let new_state = match outcome {
            SpotEval::Fulfill => SpotRequestState::Fulfilled,
            SpotEval::PriceTooLow => SpotRequestState::PriceTooLow,
            SpotEval::Oversubscribed => SpotRequestState::CapacityOversubscribed,
            SpotEval::NotAvailable => SpotRequestState::CapacityNotAvailable,
        };
        if new_state == old_state {
            return;
        }
        if new_state == SpotRequestState::Fulfilled {
            let price = self.markets[self.market_index[&market]].state.true_price();
            self.fulfil_spot(id, now, price);
        } else {
            let req = self.spot_requests.get_mut(&id).expect("present");
            req.state
                .transition(new_state, now)
                .expect("held states rotate freely");
        }
        self.events.push(CloudEvent::SpotRequestUpdate {
            request: id,
            market,
            status: new_state,
            at: now,
        });
    }

    /// Executes fulfilment: occupies the pool (displacing background spot
    /// capacity if needed) and launches the instance. The instance id is
    /// derived from the request id (each request launches at most one
    /// instance), so fulfilment inside the parallel phase needs no shared
    /// id counter.
    pub(crate) fn fulfil_spot(&mut self, id: SpotRequestId, now: SimTime, price: Price) {
        let (market, units) = {
            let r = &self.spot_requests[&id];
            (r.market, u64::from(r.units))
        };
        let pi = self.pool_index[&market.pool()];
        let pool = &mut self.pools[pi].pool;
        if !pool.admit_spot_external(units) {
            // Displace background spot capacity to make room.
            let cur = pool.spot_market_units();
            pool.set_spot_market(cur.saturating_sub(units));
            let admitted = pool.admit_spot_external(units);
            debug_assert!(admitted, "displacement must free enough room");
        }
        let instance = InstanceId(id.0 | SPOT_INSTANCE_BIT);
        let req = self.spot_requests.get_mut(&id).expect("present");
        req.state
            .transition(SpotRequestState::Fulfilled, now)
            .expect("held/pending -> fulfilled is legal");
        req.instance = Some(instance);
        req.launched_at = Some(now);
        req.launch_price = Some(price);
    }

    /// Evaluates a spot request against the current market state without
    /// mutating anything.
    pub(crate) fn evaluate_spot(
        &self,
        profile: &DemandProfile,
        market: MarketId,
        bid: Price,
        units: u32,
    ) -> SpotEval {
        let mi = self.market_index[&market];
        let m = &self.markets[mi];
        let floor = m.state.floor_price(profile.level_multiples[0]);
        let price = m.state.true_price();
        if bid < price.max(floor) {
            return SpotEval::PriceTooLow;
        }
        let pool = &self.pools[m.pool_idx].pool;
        let units = u64::from(units);
        // A parked pool withholds capacity from every new spot request
        // regardless of bid — the literal capacity-not-available of §5.3.
        if pool.parking_active() {
            return SpotEval::NotAvailable;
        }
        let room = pool.spot_fulfilment_room() >= units;
        if bid == price {
            if room {
                SpotEval::Fulfill
            } else {
                SpotEval::Oversubscribed
            }
        } else {
            // bid > price: the request can displace the marginal winner
            // unless the market cleared at the floor (no marginal loser).
            let displaceable = pool.spot_market_units() >= units && !m.state.last_clearing.at_floor;
            if room || displaceable {
                SpotEval::Fulfill
            } else {
                SpotEval::NotAvailable
            }
        }
    }

    /// Drops terminal spot requests (their final state was already
    /// returned to the caller and emitted as events).
    fn gc_terminal_requests(&mut self) {
        let mut terminal = std::mem::take(&mut self.request_scratch);
        terminal.clear();
        terminal.extend(self.active_spot.iter().copied().filter(|id| {
            self.spot_requests
                .get(id)
                .is_none_or(|r| r.state.current().is_terminal())
        }));
        for &id in &terminal {
            self.active_spot.remove(&id);
            self.spot_requests.remove(&id);
        }
        self.request_scratch = terminal;
    }
}

/// The simulated IaaS cloud.
pub struct Cloud {
    pub(crate) catalog: Catalog,
    pub(crate) config: SimConfig,
    pub(crate) now: SimTime,
    /// One shard per catalog region, ascending by [`crate::ids::Region::index`] —
    /// the fixed merge order of the determinism contract.
    pub(crate) shards: Vec<RegionShard>,
    /// Shard index per region (`None` for regions the catalog omits).
    pub(crate) shard_of_region: [Option<usize>; 9],
    /// Market id → (shard index, shard-local market index).
    pub(crate) market_loc: HashMap<MarketId, (usize, usize)>,
    /// Pool id → (shard index, shard-local pool index).
    pub(crate) pool_loc: HashMap<PoolId, (usize, usize)>,
    pub(crate) od_instances: HashMap<InstanceId, OdInstance>,
    pub(crate) ledger: Ledger,
    pub(crate) trace: TraceStore,
    pub(crate) next_id: u64,
    /// Events merged from all shards, in region order, since the last
    /// drain.
    pub(crate) events: Vec<CloudEvent>,
    surge_dist: Vec<f64>,
    /// Precomputed normalized level profile and tilt basis.
    level_grid: LevelGrid,
    /// Resolved worker count (config `threads`, with `0` resolved at
    /// construction to the machine's available parallelism — or to `1`
    /// when the catalog is too small for fan-out to pay).
    threads: usize,
    /// Worker-group index per shard: a longest-processing-time balance
    /// over shard market counts, fixed at construction. Scheduling only
    /// — results never depend on the grouping.
    group_of_shard: Vec<usize>,
    /// The shared persistent worker pool the parallel tick fans out
    /// on (the process-wide [`WorkerPool::global`] instance, grown to
    /// the resolved worker count at construction).
    pool: Arc<WorkerPool>,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cloud")
            .field("now", &self.now)
            .field("shards", &self.shards.len())
            .field("pools", &self.pool_count())
            .field("markets", &self.market_count())
            .field("od_instances", &self.od_instances.len())
            .field("spot_requests", &self.spot_request_count())
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Cloud {
    /// Creates a cloud over `catalog` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(catalog: Catalog, config: SimConfig) -> Self {
        config.validate().expect("invalid simulation config");
        let profile = &config.demand;
        let mut rng = SimRng::seed_from(config.seed);
        // One stream per region, split in canonical region order so a
        // region's stream depends only on the seed. Chaos streams are
        // forked after, so enabling fault injection leaves the demand
        // streams bit-identical.
        let region_streams = rng.fork_streams(REGION_STREAM_BASE, 9);
        let chaos_streams = rng.fork_streams(CHAOS_STREAM_BASE, 9);
        let n_levels = profile.level_multiples.len();

        let mut region_has_pool = [false; 9];
        for &pid in catalog.pools() {
            region_has_pool[pid.az.region().index()] = true;
        }
        let mut shards: Vec<RegionShard> = Vec::new();
        let mut shard_of_region = [None; 9];
        for (r, (stream, chaos_stream)) in region_streams.into_iter().zip(chaos_streams).enumerate()
        {
            if region_has_pool[r] {
                shard_of_region[r] = Some(shards.len());
                let chaos = ChaosState::for_region(&config.chaos, r, chaos_stream);
                shards.push(RegionShard::new(r, stream, chaos, n_levels));
            }
        }

        let mut pool_loc: HashMap<PoolId, (usize, usize)> = HashMap::new();
        for &pid in catalog.pools() {
            let si = shard_of_region[pid.az.region().index()].expect("pool region is active");
            let shard = &mut shards[si];
            let member_units = catalog.pool_member_units(pid) as f64;
            let physical =
                (profile.pool_scale * member_units * profile.family_pool_scale(pid.family))
                    .round()
                    .max(8.0) as u64;
            let granted = (profile.reserved_fraction * physical as f64).round() as u64;
            let pressure = profile.pool_pressure(pid);
            let demand = PoolDemand::new(
                physical - granted,
                granted,
                profile.family_volatility(pid.family),
                pressure,
                profile.region_phase(pid.az.region()),
                profile,
            );
            let li = shard.pools.len();
            pool_loc.insert(pid, (si, li));
            shard.pool_index.insert(pid, li);
            shard.pools.push(PoolEntry {
                id: pid,
                pool: CapacityPool::new(physical, granted),
                demand,
                market_indices: Vec::new(),
                last_ratio: profile.level_multiples[0],
                reclaim_until: SimTime::ZERO,
                spill_next: 0.0,
                shortage_open: false,
                parked_until: SimTime::ZERO,
            });
        }

        // Market weights: normalized within each pool. First pass
        // accumulates raw weights per shard (in shard market order).
        let mut raw_weight: Vec<Vec<f64>> = vec![Vec::new(); shards.len()];
        let mut pool_weight_sum: Vec<Vec<f64>> =
            shards.iter().map(|s| vec![0.0; s.pools.len()]).collect();
        for &mid in catalog.markets() {
            let (si, pi) = pool_loc[&mid.pool()];
            let w = profile.platform_weight(mid.platform)
                * profile.size_weight(mid.instance_type.size());
            raw_weight[si].push(w);
            pool_weight_sum[si][pi] += w;
        }

        let mut market_loc: HashMap<MarketId, (usize, usize)> = HashMap::new();
        for &mid in catalog.markets() {
            let (si, pi) = pool_loc[&mid.pool()];
            let shard = &mut shards[si];
            let li = shard.markets.len();
            let weight = raw_weight[si][li] / pool_weight_sum[si][pi];
            let pool = &shard.pools[pi];
            let physical = pool.pool.physical() as f64;
            let granted = pool.pool.reserved_granted() as f64;
            let od_cap = physical - granted;
            let pressure = profile.pool_pressure(mid.pool());
            let expected_supply = (physical
                - profile.reserved_util_mean * granted
                - (profile.od_base_util * pressure).min(1.0) * od_cap)
                .max(0.05 * physical);
            let units = mid.instance_type.units();
            let base_mass =
                (expected_supply * weight / units as f64) * profile.spot_demand_intensity;
            let state = MarketState::new(
                catalog.od_price(mid),
                weight,
                base_mass,
                units,
                profile.level_multiples[0],
            );
            market_loc.insert(mid, (si, li));
            shard.market_index.insert(mid, li);
            shard.pools[pi].market_indices.push(li);
            shard.markets.push(MarketEntry {
                id: mid,
                state,
                demand: MarketDemand::new(),
                pool_idx: pi,
                volatility: profile.family_volatility(mid.instance_type.family()),
            });
        }

        // Sibling pools: same family, different zone — same region by
        // construction, so siblings are always shard-local.
        for shard in &mut shards {
            let mut by_family: HashMap<Family, Vec<usize>> = HashMap::new();
            for (i, p) in shard.pools.iter().enumerate() {
                by_family.entry(p.id.family).or_default().push(i);
            }
            shard.sibling_pools = shard
                .pools
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    by_family[&p.id.family]
                        .iter()
                        .copied()
                        .filter(|&j| j != i)
                        .collect()
                })
                .collect();
        }

        let surge_dist = surge_weights(
            &profile.level_multiples,
            0.85,
            profile.surge_bid_decay,
            profile.surge_bid_cap_share,
        );
        let level_grid = LevelGrid::new(profile);
        let trace = TraceStore::new(config.record_all_prices);
        let market_total: usize = shards.iter().map(|s| s.markets.len()).sum();
        let threads = match config.threads {
            // Auto: parallelism pays only when each worker gets enough
            // markets to outweigh the per-tick spawn cost, so small
            // catalogs (the testbed, unit-test fixtures) stay inline.
            // An explicit `threads` setting is always honoured.
            0 if market_total < PARALLEL_AUTO_MIN_MARKETS => 1,
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };

        // The shared persistent pool runs the parallel fan-out; make
        // sure it has at least as many workers as the tick will ask
        // for (a no-op when another component already grew it).
        let pool = WorkerPool::global();
        let workers = threads.min(shards.len()).max(1);
        if workers > 1 {
            pool.reserve(workers);
        }

        // Longest-processing-time assignment of shards to workers: the
        // heaviest regions (us-east-1 dominates real catalogs) land on
        // the least-loaded worker, so the parallel phase's critical path
        // is balanced rather than whatever a contiguous split yields.
        let mut group_of_shard = vec![0usize; shards.len()];
        if workers > 1 {
            let mut order: Vec<usize> = (0..shards.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(shards[i].markets.len()));
            let mut load = vec![0usize; workers];
            for i in order {
                let g = (0..workers).min_by_key(|&g| load[g]).expect("workers > 0");
                group_of_shard[i] = g;
                load[g] += shards[i].markets.len().max(1);
            }
        }

        Cloud {
            catalog,
            config,
            now: SimTime::ZERO,
            shards,
            shard_of_region,
            market_loc,
            pool_loc,
            od_instances: HashMap::new(),
            ledger: Ledger::new(),
            trace,
            next_id: 1,
            events: Vec::new(),
            surge_dist,
            level_grid,
            threads,
            group_of_shard,
            pool,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The catalog this cloud serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The resolved tick worker count (`config.threads`, with `0`
    /// resolved to the machine's available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The account ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The trace store (price histories, ground-truth shortages).
    pub fn trace(&self) -> &TraceStore {
        &self.trace
    }

    /// Starts recording the full price history of a market.
    pub fn watch_market(&mut self, market: MarketId) {
        self.trace.watch(market);
    }

    /// Drains the events accumulated since the last call into `out`
    /// (cleared first) by swapping buffers: `out`'s old allocation
    /// becomes the cloud's next accumulation buffer, so a steady-state
    /// drive loop ping-pongs two buffers and never reallocates, even
    /// under event churn.
    pub fn drain_events_into(&mut self, out: &mut Vec<CloudEvent>) {
        out.clear();
        std::mem::swap(out, &mut self.events);
    }

    /// Runs `ticks` demand steps to move the system off its artificial
    /// initial state before an experiment begins.
    pub fn warmup(&mut self, ticks: u32) {
        for _ in 0..ticks {
            self.tick();
        }
        self.events.clear();
    }

    pub(crate) fn fresh_instance_id(&mut self) -> InstanceId {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        id
    }

    pub(crate) fn fresh_request_id(&mut self) -> SpotRequestId {
        let id = SpotRequestId(self.next_id);
        self.next_id += 1;
        id
    }

    /// The shard holding `id`, if the request is still tracked. Shards
    /// are per-region, so this scans at most nine hash maps — fine for
    /// the (rate-limited) API paths that look requests up by id.
    pub(crate) fn find_spot_request(&self, id: SpotRequestId) -> Option<(usize, MarketId)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(si, s)| s.spot_requests.get(&id).map(|r| (si, r.market)))
    }

    /// All pool entries across shards, in region order.
    #[cfg(test)]
    pub(crate) fn iter_pool_entries(&self) -> impl Iterator<Item = &PoolEntry> {
        self.shards.iter().flat_map(|s| s.pools.iter())
    }

    // ---------------------------------------------------------------
    // Oracle accessors (simulation-side ground truth; not part of the
    // rate-limited API).
    // ---------------------------------------------------------------

    /// The true (instantaneous) clearing price of a market.
    pub fn oracle_true_price(&self, market: MarketId) -> Option<Price> {
        self.market_loc
            .get(&market)
            .map(|&(si, mi)| self.shards[si].markets[mi].state.true_price())
    }

    /// The currently published price of a market (no API token consumed).
    pub fn oracle_published_price(&self, market: MarketId) -> Option<Price> {
        self.market_loc
            .get(&market)
            .map(|&(si, mi)| self.shards[si].markets[mi].state.published_price())
    }

    /// Whether an on-demand request for this market would be admitted
    /// right now (ground truth, no probe).
    pub fn oracle_od_available(&self, market: MarketId) -> Option<bool> {
        let &(si, pi) = self.pool_loc.get(&market.pool())?;
        let units = u64::from(market.instance_type.units());
        Some(
            self.shards[si].pools[pi]
                .pool
                .check_od_admission(units)
                .is_ok(),
        )
    }

    /// Ground-truth snapshot of a pool.
    pub fn oracle_pool(&self, pool: PoolId) -> Option<crate::pool::PoolSnapshot> {
        self.pool_loc
            .get(&pool)
            .map(|&(si, pi)| self.shards[si].pools[pi].pool.snapshot())
    }

    /// Number of markets simulated.
    pub fn market_count(&self) -> usize {
        self.shards.iter().map(|s| s.markets.len()).sum()
    }

    /// Number of capacity pools simulated.
    pub fn pool_count(&self) -> usize {
        self.shards.iter().map(|s| s.pools.len()).sum()
    }

    /// Number of open (non-garbage-collected) spot requests.
    pub fn spot_request_count(&self) -> usize {
        self.shards.iter().map(|s| s.spot_requests.len()).sum()
    }

    // ---------------------------------------------------------------
    // The tick loop.
    // ---------------------------------------------------------------

    /// Advances the simulation one demand tick: publishes pending price
    /// changes, updates demand, clears every market, spawns surges, and
    /// processes spot revocations and held-request re-evaluation — per
    /// region shard, fanned out across up to `threads` workers, with
    /// shard outputs merged in fixed region order (see the module docs
    /// for the determinism contract).
    pub fn tick(&mut self) {
        let dt = self.config.tick;
        self.now += dt;
        let ctx = TickCtx {
            config: &self.config,
            level_grid: &self.level_grid,
            surge_dist: &self.surge_dist,
            trace: &self.trace,
            now: self.now,
            dt,
        };
        let workers = self.threads.min(self.shards.len()).max(1);
        if workers <= 1 {
            for shard in &mut self.shards {
                shard.tick(&ctx);
            }
        } else {
            // Distribute shards by the precomputed load-balanced
            // grouping, one pool task per non-empty group. The pool's
            // scope is a join barrier: every shard has ticked before
            // the merge below runs.
            let mut groups: Vec<Vec<&mut RegionShard>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, shard) in self.shards.iter_mut().enumerate() {
                groups[self.group_of_shard[i]].push(shard);
            }
            let ctx = &ctx;
            self.pool.scope(|s| {
                for group in groups {
                    if group.is_empty() {
                        continue;
                    }
                    s.spawn(move || {
                        for shard in group {
                            shard.tick(ctx);
                        }
                    });
                }
            });
        }
        self.merge_shard_outputs();
    }

    /// Applies every shard's buffered events, trace writes, and ledger
    /// charges, in ascending region order — the single deterministic
    /// serialization point of the parallel tick.
    fn merge_shard_outputs(&mut self) {
        for shard in &mut self.shards {
            self.events.append(&mut shard.events);
            for op in shard.trace_ops.drain(..) {
                match op {
                    TraceOp::Price(market, at, price) => self.trace.record_price(market, at, price),
                    TraceOp::ShortageStarted(pool, at) => self.trace.shortage_started(pool, at),
                    TraceOp::ShortageEnded(pool, at) => self.trace.shortage_ended(pool, at),
                }
            }
            for c in shard.charges.drain(..) {
                self.ledger.charge(c.at, c.market, c.kind, c.used, c.rate);
            }
        }
    }
}

/// Outcome of evaluating a spot request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpotEval {
    Fulfill,
    PriceTooLow,
    Oversubscribed,
    NotAvailable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DemandProfile;

    fn quiet_cloud() -> Cloud {
        let mut config = SimConfig::paper(42);
        config.demand = DemandProfile::quiet();
        Cloud::new(Catalog::testbed(), config)
    }

    #[test]
    fn construction_wires_indices() {
        let c = quiet_cloud();
        assert_eq!(c.market_count(), c.catalog().markets().len());
        assert_eq!(c.pool_count(), c.catalog().pools().len());
        for &m in c.catalog().markets() {
            assert!(c.oracle_true_price(m).is_some());
        }
        // Shards cover exactly the catalog's regions, ascending.
        let regions: Vec<usize> = c.shards.iter().map(|s| s.region_idx).collect();
        let mut sorted = regions.clone();
        sorted.sort_unstable();
        assert_eq!(regions, sorted, "shards must be in region order");
    }

    #[test]
    fn tick_advances_time() {
        let mut c = quiet_cloud();
        let t0 = c.now();
        c.tick();
        assert_eq!(c.now(), t0 + c.config().tick);
    }

    #[test]
    fn quiet_cloud_prices_settle_at_floor() {
        let mut c = quiet_cloud();
        c.warmup(50);
        for &m in c.catalog().markets() {
            let price = c.oracle_true_price(m).unwrap();
            let od = c.catalog().od_price(m);
            let ratio = price.ratio_to(od);
            assert!(
                ratio <= 0.30,
                "market {m} should be near the floor, ratio {ratio}"
            );
        }
    }

    #[test]
    fn quiet_cloud_od_always_available() {
        let mut c = quiet_cloud();
        c.warmup(50);
        for &m in c.catalog().markets() {
            assert_eq!(c.oracle_od_available(m), Some(true), "market {m}");
        }
    }

    #[test]
    fn pool_invariants_hold_under_paper_demand() {
        let mut config = SimConfig::paper(7);
        config.demand = DemandProfile::paper_calibration();
        let mut c = Cloud::new(Catalog::testbed(), config);
        for _ in 0..500 {
            c.tick();
            for p in c.iter_pool_entries() {
                assert!(p.pool.invariants_hold(), "pool {} broke invariants", p.id);
            }
        }
    }

    #[test]
    fn price_changes_are_published_with_lag() {
        let mut config = SimConfig::paper(9);
        config.demand = DemandProfile::paper_calibration();
        config.record_all_prices = true;
        let mut c = Cloud::new(Catalog::testbed(), config);
        let mut saw_change = false;
        let mut events = Vec::new();
        for _ in 0..300 {
            c.tick();
            c.drain_events_into(&mut events);
            for &ev in &events {
                if let CloudEvent::PriceChange { market, price, .. } = ev {
                    saw_change = true;
                    // The published price matches the event.
                    assert_eq!(c.oracle_published_price(market), Some(price));
                }
            }
        }
        assert!(
            saw_change,
            "expected at least one price change in 300 ticks"
        );
    }

    #[test]
    fn shortage_events_are_paired() {
        let config = SimConfig::paper(11);
        let mut c = Cloud::new(Catalog::testbed(), config);
        let mut open: HashMap<PoolId, u32> = HashMap::new();
        let mut events = Vec::new();
        for _ in 0..1500 {
            c.tick();
            c.drain_events_into(&mut events);
            for &ev in &events {
                match ev {
                    CloudEvent::PoolShortageStarted { pool, .. } => {
                        *open.entry(pool).or_insert(0) += 1;
                        assert_eq!(open[&pool], 1, "double start for {pool}");
                    }
                    CloudEvent::PoolShortageEnded { pool, .. } => {
                        let v = open.get_mut(&pool).expect("end without start");
                        *v -= 1;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn warmup_clears_events() {
        let mut c = quiet_cloud();
        c.warmup(10);
        let mut events = Vec::new();
        c.drain_events_into(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn drain_events_into_recycles_the_buffer() {
        let mut config = SimConfig::paper(13);
        config.record_all_prices = true;
        let mut c = Cloud::new(Catalog::testbed(), config);
        let mut buf = Vec::new();
        let mut total = 0usize;
        for _ in 0..100 {
            c.tick();
            c.drain_events_into(&mut buf);
            total += buf.len();
        }
        assert!(total > 0, "expected events in 100 paper-demand ticks");
        // After a drain the internal buffer is empty again.
        c.drain_events_into(&mut buf);
        assert!(buf.is_empty());
    }

    /// The determinism contract: the same seed and config produce the
    /// same event stream and prices at every thread count.
    #[test]
    fn tick_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut config = SimConfig::paper(23);
            config.record_all_prices = true;
            config.threads = threads;
            let mut c = Cloud::new(Catalog::testbed(), config);
            let mut events = Vec::new();
            let mut drained = Vec::new();
            for _ in 0..300 {
                c.tick();
                c.drain_events_into(&mut drained);
                events.extend_from_slice(&drained);
            }
            let prices: Vec<Price> = c
                .catalog()
                .markets()
                .iter()
                .map(|&m| c.oracle_true_price(m).unwrap())
                .collect();
            (events, prices)
        };
        let base = run(1);
        assert_eq!(base, run(2), "threads=2 diverged from threads=1");
        assert_eq!(base, run(5), "threads=5 diverged from threads=1");
    }
}

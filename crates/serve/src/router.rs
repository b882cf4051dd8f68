//! Request routing: URL/query parsing, market-id wire format, and the
//! JSON endpoint handlers.
//!
//! Hot-path endpoints (`/v1/*`) answer exclusively from the current
//! [`StoreSnapshot`] via the worker's [`SnapshotReader`] — no store
//! locks, no contention with ingest. The health surfaces (`/healthz`,
//! `/readyz`, `/statz`) peek at the *live* store (durability mode,
//! degraded regions) through a `Weak` handle so a drained server can
//! release the store for [`spotlight_core::DataStore::close`].
//!
//! Markets travel as `az/type/platform` with short platform names
//! (`us-east-1a/c3.large/linux`) because the EC2 product descriptions
//! themselves contain `/`.
//!
//! **Invariant: a steady-state point request performs no heap
//! allocation, and every body is byte-identical to PR 12's.** There is
//! one implementation, `route_into`: it walks the query string once,
//! cutting it into borrowed `&str` parameters and noting on the way
//! which values hold a `%` or `+` (only those are percent-decoded —
//! into an owned string, the one exception — and only if a route reads
//! them), runs the query over the snapshot, and encodes the body into a
//! `String` the caller owns. The server passes the same scratch `String`
//! for every request of a connection (it lives in
//! `server::serve_connection`), so once it has grown to the largest
//! body seen, routing costs no heap traffic. Market ids are matched on
//! the way in (`FromStr` of the id vocabulary and the platform names
//! are `match`es on the string, not searches) and written as their
//! static region/family/size/platform names on the way out, never
//! formatted; keys are [`json::key!`] literals.
//! [`route`] is the same call with a fresh body per request, for
//! callers that want an owned [`RouteOutcome`].
//!
//! The all-market questions — `/v1/advisor/top`,
//! `/v1/advisor/fallbacks`, `/v1/spike-rates` — are asked of the
//! snapshot itself ([`StoreSnapshot::top_available_markets`],
//! [`StoreSnapshot::uncorrelated_fallbacks`],
//! [`StoreSnapshot::spikes_at_or_above_each`]), which derives a table of
//! every probed market and the spike counts asked for once per
//! generation, on the first such request, and answers the rest of the
//! generation's from them: a default-span ranking walks that table's
//! availability rank and stops at `n`, not a hash lookup per market,
//! and gives the same bytes as the per-market path. A publish derives nothing;
//! `thresholds` is bounded by [`MAX_SPIKE_THRESHOLDS`], the memo's
//! capacity.

use crate::admission::ServerStats;
use cloud_sim::ids::{Az, InstanceType, MarketId, Platform, Region};
use cloud_sim::time::{SimDuration, SimTime};
use spotlight_core::json::{self, key};
use spotlight_core::probe::ProbeKind;
use spotlight_core::query::SpotLightQuery;
use spotlight_core::snapshot::{SnapshotHub, SnapshotReader, StoreSnapshot, MAX_SPIKE_THRESHOLDS};
use spotlight_core::store::DataStore;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Everything the router needs to answer a request.
#[derive(Debug)]
pub struct ServiceState {
    /// The snapshot publication point queries read through.
    pub hub: Arc<SnapshotHub>,
    /// The live store, for health surfaces only. `Weak` so drain can
    /// hand the last strong reference back to the owner for `close()`.
    pub store: Weak<DataStore>,
    /// Server counters (served by `/statz`).
    pub stats: Arc<ServerStats>,
    /// Set during graceful drain; flips `/readyz` to 503.
    pub draining: Arc<AtomicBool>,
    /// Advertised `Retry-After` for drain/overload 503s.
    pub retry_after_secs: u32,
}

/// One routed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` to advertise (503s).
    pub retry_after: Option<u32>,
}

/// What [`route_into`] decided about a response whose body it wrote
/// into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Routed {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` to advertise (503s).
    pub retry_after: Option<u32>,
}

const OK: Routed = Routed {
    status: 200,
    retry_after: None,
};

/// A handler's result: `Err` is a refusal whose error body is already
/// in the buffer, so `?` can carry it out of the parameter parsing.
type Handled = Result<Routed, Routed>;

/// Routes one parsed request. Never panics on user input; every
/// malformed parameter is a 400 with a description.
pub fn route(
    path: &str,
    query: &str,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> RouteOutcome {
    // Room for a point answer (~350 bytes) without regrowing.
    let mut body = String::with_capacity(384);
    let Routed {
        status,
        retry_after,
    } = route_into(path, query, state, reader, &mut body);
    RouteOutcome {
        status,
        body,
        retry_after,
    }
}

/// Routes one parsed request, replacing `body`'s content with the
/// response body — the one implementation behind [`route`] and the
/// server's connection loop (see the module docs).
pub(crate) fn route_into(
    path: &str,
    query: &str,
    state: &ServiceState,
    reader: &mut SnapshotReader,
    body: &mut String,
) -> Routed {
    body.clear();
    let mut request = Request {
        params: Params::split(query),
        body,
    };
    let request = &mut request;
    let handled = match path {
        "/healthz" => healthz(request, state, reader),
        "/readyz" => readyz(request, state),
        "/statz" => statz(request, state),
        "/v1/availability" => availability(request, state, reader),
        "/v1/freshness" => freshness(request, state, reader),
        "/v1/spike-rates" => spike_rates(request, state, reader),
        "/v1/bid-spread" => bid_spread(request, state, reader),
        "/v1/advisor/top" => advisor_top(request, state, reader),
        "/v1/advisor/fallbacks" => advisor_fallbacks(request, state, reader),
        _ => Err(request.fail(404, format_args!("no such route"))),
    };
    handled.unwrap_or_else(|refusal| refusal)
}

// ---------------------------------------------------------------- params

/// One parameter's value as the query string carries it, and whether
/// it holds a `%` or `+` — i.e. whether reading it means decoding it.
#[derive(Debug, Clone, Copy)]
struct Raw<'q> {
    text: &'q str,
    escaped: bool,
}

/// The raw value of every parameter any route reads, borrowed from the
/// query string in one pass. The first occurrence of a name wins;
/// names no route reads are skipped.
#[derive(Debug, Default, Clone, Copy)]
struct Params<'q> {
    market: Option<Raw<'q>>,
    kind: Option<Raw<'q>>,
    start_secs: Option<Raw<'q>>,
    end_secs: Option<Raw<'q>>,
    thresholds: Option<Raw<'q>>,
    window_secs: Option<Raw<'q>>,
    region: Option<Raw<'q>>,
    min_probes: Option<Raw<'q>>,
    n: Option<Raw<'q>>,
}

impl<'q> Params<'q> {
    fn split(query: &'q str) -> Self {
        let mut params = Params::default();
        // One walk of the bytes: an `&` (or the end) closes a pair, the
        // pair's first `=` closes its name, and a `%` or `+` after that
        // marks the value. All ASCII, so every cut is a char boundary.
        let (mut pair, mut eq, mut escaped) = (0, None, false);
        for (i, byte) in query.bytes().chain([b'&']).enumerate() {
            match byte {
                b'=' if eq.is_none() => eq = Some(i),
                b'%' | b'+' => escaped |= eq.is_some(),
                b'&' => {
                    let (key, text) = match eq {
                        Some(eq) => (&query[pair..eq], &query[eq + 1..i]),
                        None => (&query[pair..i], ""),
                    };
                    let slot = match key {
                        "market" => Some(&mut params.market),
                        "kind" => Some(&mut params.kind),
                        "start_secs" => Some(&mut params.start_secs),
                        "end_secs" => Some(&mut params.end_secs),
                        "thresholds" => Some(&mut params.thresholds),
                        "window_secs" => Some(&mut params.window_secs),
                        "region" => Some(&mut params.region),
                        "min_probes" => Some(&mut params.min_probes),
                        "n" => Some(&mut params.n),
                        _ => None,
                    };
                    if let Some(slot) = slot {
                        slot.get_or_insert(Raw { text, escaped });
                    }
                    (pair, eq, escaped) = (i + 1, None, false);
                }
                _ => {}
            }
        }
        params
    }
}

/// Percent-decodes one query-string component (`+` means space).
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// One request on its way through a handler: the split parameters and
/// the buffer the response body (or the refusal) is written into.
struct Request<'a> {
    params: Params<'a>,
    body: &'a mut String,
}

impl<'a> Request<'a> {
    /// Replaces the body with `{"error": message}`.
    fn fail(&mut self, status: u16, message: fmt::Arguments<'_>) -> Routed {
        self.body.clear();
        match message.as_str() {
            Some(message) => json::object(self.body, |o| o.str(key!("error"), message)),
            None => json::object(self.body, |o| o.str(key!("error"), &message.to_string())),
        }
        Routed {
            status,
            retry_after: None,
        }
    }

    /// Decodes one parameter; a parameter a route never asks for is
    /// never decoded (nor refused).
    fn decoded(
        &mut self,
        name: &str,
        raw: Option<Raw<'a>>,
    ) -> Result<Option<Cow<'a, str>>, Routed> {
        let Some(raw) = raw else { return Ok(None) };
        if !raw.escaped {
            return Ok(Some(Cow::Borrowed(raw.text)));
        }
        match percent_decode(raw.text) {
            Some(value) => Ok(Some(Cow::Owned(value))),
            None => Err(self.fail(400, format_args!("malformed percent-encoding in '{name}'"))),
        }
    }

    fn u64(&mut self, name: &str, raw: Option<Raw<'a>>, default: u64) -> Result<u64, Routed> {
        match self.decoded(name, raw)? {
            None => Ok(default),
            Some(v) => crate::parser::parse_digits(&v).ok_or_else(|| {
                self.fail(400, format_args!("'{name}' must be a non-negative integer"))
            }),
        }
    }

    fn usize(&mut self, name: &str, raw: Option<Raw<'a>>, default: usize) -> Result<usize, Routed> {
        self.u64(name, raw, default as u64).map(|v| v as usize)
    }

    fn market(&mut self) -> Result<MarketId, Routed> {
        let Some(market) = self.decoded("market", self.params.market)? else {
            return Err(self.fail(400, format_args!("missing required parameter 'market'")));
        };
        parse_market(&market).map_err(|e| self.fail(400, format_args!("{e}")))
    }

    fn kind(&mut self) -> Result<ProbeKind, Routed> {
        match self.decoded("kind", self.params.kind)?.as_deref() {
            None | Some("od") | Some("on-demand") => Ok(ProbeKind::OnDemand),
            Some("spot") => Ok(ProbeKind::Spot),
            Some("notice") | Some("interruption") => Ok(ProbeKind::InterruptionNotice),
            Some(other) => Err(self.fail(
                400,
                format_args!("unknown kind '{other}' (od, spot, notice)"),
            )),
        }
    }

    /// The observation span `[start, end)`: explicit `start_secs`/
    /// `end_secs`, defaulting to `[0, snapshot.as_of)`.
    fn span(&mut self, snapshot: &StoreSnapshot) -> Result<(SimTime, SimTime), Routed> {
        let start = self.u64("start_secs", self.params.start_secs, 0)?;
        let end = self.u64("end_secs", self.params.end_secs, snapshot.as_of().as_secs())?;
        if end <= start {
            return Err(self.fail(
                400,
                format_args!(
                    "empty observation span: end_secs must exceed start_secs \
                     (an unseeded store has as_of 0 — pass end_secs explicitly)"
                ),
            ));
        }
        Ok((SimTime::from_secs(start), SimTime::from_secs(end)))
    }

    /// `window_secs`, which must be positive.
    fn window(&mut self, default: u64) -> Result<SimDuration, Routed> {
        match self.u64("window_secs", self.params.window_secs, default)? {
            0 => Err(self.fail(400, format_args!("'window_secs' must be positive"))),
            w => Ok(SimDuration::from_secs(w)),
        }
    }
}

// ------------------------------------------------------------- market ids

/// The wire name of a platform (see the module docs).
pub fn platform_param(platform: Platform) -> &'static str {
    match platform {
        Platform::LinuxUnix => "linux",
        Platform::LinuxUnixVpc => "linux-vpc",
        Platform::Windows => "windows",
        Platform::SuseLinux => "suse",
    }
}

/// The static pieces whose concatenation is the market's wire form.
fn market_parts(market: MarketId) -> [&'static str; 8] {
    const ZONE_LETTERS: &str = "abcdefghijklmnopqrstuvwxyz";
    let zone = usize::from(market.az.zone_index());
    [
        market.az.region().name(),
        &ZONE_LETTERS[zone..zone + 1],
        "/",
        market.instance_type.family().name(),
        ".",
        market.instance_type.size().suffix(),
        "/",
        platform_param(market.platform),
    ]
}

/// Formats a market for URLs and response bodies:
/// `us-east-1a/c3.large/linux`.
pub fn market_param(market: MarketId) -> String {
    market_parts(market).concat()
}

/// Parses the `az/type/platform` wire format.
pub fn parse_market(s: &str) -> Result<MarketId, String> {
    // Exactly two `/` (ASCII, so both cuts are char boundaries).
    let mut slashes = s.bytes().enumerate().filter(|&(_, b)| b == b'/');
    let (Some((first, _)), Some((second, _)), None) =
        (slashes.next(), slashes.next(), slashes.next())
    else {
        return Err(format!(
            "market '{s}' must be az/type/platform (e.g. us-east-1a/c3.large/linux)"
        ));
    };
    let (az, ty, platform) = (&s[..first], &s[first + 1..second], &s[second + 1..]);
    let az: Az = az.parse().map_err(|e| format!("{e}"))?;
    let instance_type: InstanceType = ty.parse().map_err(|e| format!("{e}"))?;
    let platform = match platform {
        "linux" => Platform::LinuxUnix,
        "linux-vpc" => Platform::LinuxUnixVpc,
        "windows" => Platform::Windows,
        "suse" => Platform::SuseLinux,
        _ => {
            return Err(format!(
                "unknown platform '{platform}' (linux, linux-vpc, windows, suse)"
            ))
        }
    };
    Ok(MarketId {
        az,
        instance_type,
        platform,
    })
}

fn kind_name(kind: ProbeKind) -> &'static str {
    match kind {
        ProbeKind::OnDemand => "od",
        ProbeKind::Spot => "spot",
        ProbeKind::InterruptionNotice => "notice",
    }
}

// ------------------------------------------------------------- endpoints

fn availability(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let market = request.market()?;
    let kind = request.kind()?;
    let snapshot = reader.current(&state.hub);
    let (start, end) = request.span(snapshot)?;
    let read = snapshot.read();
    let q = SpotLightQuery::new(&read, start, end);
    let (stats, fresh) = q.availability_qualified(market, kind);
    json::object(request.body, |o| {
        o.str_parts(key!("market"), &market_parts(market));
        o.str(key!("kind"), kind_name(kind));
        o.u64(key!("start_secs"), start.as_secs());
        o.u64(key!("end_secs"), end.as_secs());
        o.value(key!("availability"), &stats);
        o.value(key!("freshness"), &fresh);
        o.u64(key!("as_of_secs"), snapshot.as_of().as_secs());
    });
    Ok(OK)
}

fn freshness(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let market = request.market()?;
    let kind = request.kind()?;
    let snapshot = reader.current(&state.hub);
    let end = snapshot.as_of().max(SimTime::from_secs(1));
    let read = snapshot.read();
    let q = SpotLightQuery::new(&read, SimTime::ZERO, end);
    let fresh = q.freshness(market, kind);
    json::object(request.body, |o| {
        o.str_parts(key!("market"), &market_parts(market));
        o.str(key!("kind"), kind_name(kind));
        o.value(key!("freshness"), &fresh);
        o.u64(key!("as_of_secs"), snapshot.as_of().as_secs());
    });
    Ok(OK)
}

/// `/v1/spike-rates`: spikes per window at each threshold. The counts
/// are over the store's lifetime; `start_secs`/`end_secs` only set the
/// number of windows they are divided by (`SpotLightQuery::spike_rates`).
fn spike_rates(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let mut thresholds = Vec::new();
    match request.decoded("thresholds", request.params.thresholds)? {
        None => thresholds.extend([1.25, 1.5, 2.0, 5.0]),
        Some(csv) => {
            for part in csv.split(',') {
                match part.trim().parse::<f64>() {
                    Ok(t) if t.is_finite() => thresholds.push(t),
                    _ => {
                        return Err(request.fail(
                            400,
                            format_args!("'thresholds' must be comma-separated finite numbers"),
                        ))
                    }
                }
            }
            if thresholds.is_empty() {
                return Err(request.fail(
                    400,
                    format_args!("'thresholds' must name at least one threshold"),
                ));
            }
            // Each one is a sweep of every spike bucket, and a slot in
            // the snapshot's memo.
            if thresholds.len() > MAX_SPIKE_THRESHOLDS {
                return Err(request.fail(
                    400,
                    format_args!("'thresholds' may name at most {MAX_SPIKE_THRESHOLDS} thresholds"),
                ));
            }
        }
    }
    let window = request.window(86_400)?;
    let snapshot = reader.current(&state.hub);
    let (start, end) = request.span(snapshot)?;
    let read = snapshot.read();
    let counts = snapshot.spikes_at_or_above_each(&thresholds);
    let rates =
        SpotLightQuery::new(&read, start, end).spike_rates_from(&thresholds, counts, window);
    json::object(request.body, |o| {
        o.u64(key!("window_secs"), window.as_secs());
        o.u64(key!("start_secs"), start.as_secs());
        o.u64(key!("end_secs"), end.as_secs());
        o.array(key!("rates"), |a| {
            for rate in &rates {
                a.object(|o| {
                    o.f64(key!("threshold"), rate.threshold);
                    o.f64(key!("spikes_per_window"), rate.spikes_per_window);
                });
            }
        });
    });
    Ok(OK)
}

fn bid_spread(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let market = request.market()?;
    let snapshot = reader.current(&state.hub);
    let read = snapshot.read();
    let mut observations = 0u64;
    let mut attempts_total = 0u64;
    let mut markup_total = 0.0f64;
    let mut markup_n = 0u64;
    let mut latest = None;
    for rec in read.intrinsic_bids_of(market) {
        observations += 1;
        attempts_total += u64::from(rec.attempts);
        if rec.published != cloud_sim::price::Price::ZERO {
            markup_total += rec.intrinsic.ratio_to(rec.published);
            markup_n += 1;
        }
        if latest.is_none_or(|l: spotlight_core::store::IntrinsicBidRecord| l.at < rec.at) {
            latest = Some(*rec);
        }
    }
    json::object(request.body, |o| {
        o.str_parts(key!("market"), &market_parts(market));
        o.u64(key!("observations"), observations);
        if observations > 0 {
            o.f64(
                key!("mean_attempts"),
                attempts_total as f64 / observations as f64,
            );
        } else {
            o.null(key!("mean_attempts"));
        }
        if markup_n > 0 {
            o.f64(
                key!("mean_intrinsic_markup"),
                markup_total / markup_n as f64,
            );
        } else {
            o.null(key!("mean_intrinsic_markup"));
        }
        match latest {
            Some(rec) => o.object(key!("latest"), |o| {
                o.u64(key!("at_secs"), rec.at.as_secs());
                o.f64(key!("published_dollars"), rec.published.as_dollars());
                o.f64(key!("intrinsic_dollars"), rec.intrinsic.as_dollars());
                o.u64(key!("attempts"), u64::from(rec.attempts));
            }),
            None => o.null(key!("latest")),
        }
        o.u64(key!("as_of_secs"), snapshot.as_of().as_secs());
    });
    Ok(OK)
}

fn advisor_top(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let region = match request.decoded("region", request.params.region)? {
        None => None,
        Some(name) => match name.parse::<Region>() {
            Ok(r) => Some(r),
            Err(e) => return Err(request.fail(400, format_args!("{e}"))),
        },
    };
    let min_probes = request.u64("min_probes", request.params.min_probes, 1)?;
    let n = request.usize("n", request.params.n, 10)?;
    let snapshot = reader.current(&state.hub);
    let (start, end) = request.span(snapshot)?;
    let top = snapshot.top_available_markets((start, end), region, min_probes, n);
    json::object(request.body, |o| {
        o.u64(key!("start_secs"), start.as_secs());
        o.u64(key!("end_secs"), end.as_secs());
        o.u64(
            key!("candidates"),
            snapshot.probed_markets_sorted().len() as u64,
        );
        o.array(key!("markets"), |a| {
            for (market, stats) in &top {
                a.object(|o| {
                    o.str_parts(key!("market"), &market_parts(*market));
                    o.value(key!("availability"), stats);
                });
            }
        });
    });
    Ok(OK)
}

fn advisor_fallbacks(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let market = request.market()?;
    let window = request.window(900)?;
    let n = request.usize("n", request.params.n, 5)?;
    let snapshot = reader.current(&state.hub);
    let fallbacks = snapshot.uncorrelated_fallbacks(market, window, n);
    json::object(request.body, |o| {
        o.str_parts(key!("market"), &market_parts(market));
        o.u64(key!("window_secs"), window.as_secs());
        o.array(key!("fallbacks"), |a| {
            for fallback in &fallbacks {
                a.str_parts(&market_parts(*fallback));
            }
        });
        o.u64(key!("as_of_secs"), snapshot.as_of().as_secs());
    });
    Ok(OK)
}

// --------------------------------------------------------------- health

fn write_store_health(o: &mut json::Object<'_>, store: &Weak<DataStore>) {
    match store.upgrade() {
        Some(store) => o.object(key!("store"), |o| {
            o.bool(key!("available"), true);
            match store.durability_mode() {
                Some(mode) => o.value(key!("durability_mode"), &mode),
                None => o.str(key!("durability_mode"), "in-memory"),
            }
            o.opt_u64(
                key!("durability_lost_secs"),
                store.durability_lost().map(|t| t.as_secs()),
            );
            match store.durability_stats() {
                Some(stats) => o.value(key!("durability"), &stats),
                None => o.null(key!("durability")),
            }
            o.array(key!("degraded_regions"), |a| {
                for region in store.degraded_regions() {
                    a.str(region.name());
                }
            });
        }),
        None => o.object(key!("store"), |o| o.bool(key!("available"), false)),
    }
}

fn healthz(
    request: &mut Request<'_>,
    state: &ServiceState,
    reader: &mut SnapshotReader,
) -> Handled {
    let snapshot = reader.current(&state.hub);
    json::object(request.body, |o| {
        o.str(key!("status"), "ok");
        o.bool(key!("draining"), state.draining.load(Ordering::Relaxed));
        o.u64(key!("snapshot_generation"), state.hub.generation());
        o.object(key!("snapshot"), |o| {
            o.u64(key!("as_of_secs"), snapshot.as_of().as_secs());
            o.u64(key!("probes"), snapshot.len() as u64);
        });
        write_store_health(o, &state.store);
    });
    Ok(OK)
}

fn readyz(request: &mut Request<'_>, state: &ServiceState) -> Handled {
    let draining = state.draining.load(Ordering::Relaxed);
    let Some(store) = state.store.upgrade().filter(|_| !draining) else {
        json::object(request.body, |o| {
            o.bool(key!("ready"), false);
            o.str(
                key!("reason"),
                if draining { "draining" } else { "store closed" },
            );
        });
        return Ok(Routed {
            status: 503,
            retry_after: Some(state.retry_after_secs),
        });
    };
    json::object(request.body, |o| {
        o.bool(key!("ready"), true);
        match store.durability_mode() {
            Some(mode) => o.value(key!("durability_mode"), &mode),
            None => o.str(key!("durability_mode"), "in-memory"),
        }
        o.opt_u64(
            key!("durability_lost_secs"),
            store.durability_lost().map(|t| t.as_secs()),
        );
        o.array(key!("degraded_regions"), |a| {
            for region in store.degraded_regions() {
                a.str(region.name());
            }
        });
    });
    Ok(OK)
}

fn statz(request: &mut Request<'_>, state: &ServiceState) -> Handled {
    state.stats.snapshot().write_json(request.body);
    Ok(OK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_sim::ids::Region;

    #[test]
    fn market_wire_format_round_trips() {
        for platform in Platform::ALL {
            let market = MarketId {
                az: Az::new(Region::EuWest1, 1),
                instance_type: "m3.xlarge".parse().unwrap(),
                platform,
            };
            assert_eq!(parse_market(&market_param(market)), Ok(market));
        }
        assert!(parse_market("nope").is_err());
        assert!(parse_market("us-east-1a/c3.large/os2").is_err());
        assert!(parse_market("us-east-1a/c3.large/linux/extra").is_err());
        // A decoded multi-byte zone letter is refused, not sliced.
        assert!(parse_market("us-east-1\u{e9}/c3.large/linux").is_err());
    }

    #[test]
    fn every_catalog_market_round_trips_and_platform_near_misses_are_refused() {
        for &market in cloud_sim::catalog::Catalog::standard().markets() {
            assert_eq!(parse_market(&market_param(market)), Ok(market));
        }
        for platform in Platform::ALL {
            let name = platform_param(platform);
            for miss in [name.to_uppercase(), format!("{name} "), String::new()] {
                assert_eq!(
                    parse_market(&format!("us-east-1a/c3.large/{miss}")),
                    Err(format!(
                        "unknown platform '{miss}' (linux, linux-vpc, windows, suse)"
                    ))
                );
            }
        }
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        assert_eq!(percent_decode("a%2Fb+c").as_deref(), Some("a/b c"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%GG"), None);
        assert_eq!(percent_decode("trunc%2"), None);
    }
}

//! Sharded, mergeable fleet aggregation: the machinery behind million-device
//! cohorts on one box.
//!
//! A monolithic [`FleetScheduler`](crate::fleet::FleetScheduler) run used to
//! hold every [`DeviceSummary`] in RAM and sort
//! per-device value vectors to answer percentile queries — fine for thousands
//! of devices, a hard wall long before a million.  This module replaces that
//! with state that is **bounded** (independent of the device count) and
//! **mergeable** (reports from independent shards combine into exactly the
//! monolithic report):
//!
//! * [`ExactSum`] — an order-independent, *exact* `f64` accumulator (a
//!   fixed-point superaccumulator spanning the whole IEEE-754 double range).
//!   Because the state encodes the exact real-number sum, merging shard sums
//!   is bit-identical to the monolithic left-to-right sum — float addition's
//!   non-associativity never enters.
//! * [`QuantileSketch`] — a mergeable quantile sketch over fixed,
//!   data-independent buckets (sign, exponent and the top
//!   [`QuantileSketch::MANTISSA_BITS`] mantissa bits of each value).  Merge is
//!   bucket-count addition, so it is *fully* associative and commutative —
//!   stronger than the classic t-digest, whose centroid re-compression makes
//!   merge results depend on the merge tree.  The price is that percentile
//!   answers are magnitude-truncated bucket representatives (relative error
//!   below 2^-12 ≈ 0.025%) instead of exact order statistics.
//! * [`FleetStats`] — the full mergeable report state: device/epoch totals,
//!   exact metric sums, quantile sketches, per-routine / per-backend /
//!   per-configuration groups.  This is what a
//!   [`FleetReport`](crate::fleet::FleetReport) carries.
//! * [`ShardRange`] / [`FleetSpec::shards`](crate::fleet::FleetSpec::shards)
//!   — contiguous device-id ranges aligned to lockstep-chunk boundaries, so a
//!   shard schedules exactly the chunks the monolithic run would.
//! * [`SpoolWriter`] / [`SpoolReader`] — a compact on-disk spool for
//!   completed [`DeviceSummary`] rows, so
//!   per-device detail survives a bounded-memory run without ever living in
//!   RAM (spec in `docs/WIRE_FORMAT.md`).
//!
//! # Canonical merge order
//!
//! Every merge in this module is associative and commutative *by
//! construction* (counter addition and exact big-integer addition), so any
//! merge order yields bit-identical state.  The documented canonical order —
//! what `fleet_shard` and the tests use, and what any new coordinator should
//! follow — is **ascending shard index** (equivalently, ascending device-id
//! range).  Sticking to one order keeps diagnostic transcripts comparable
//! even though the algebra does not require it.

use std::collections::BTreeMap;
use std::io::{Read, Write};

use adasense_sensor::{SensorConfig, TxPolicy};

pub use crate::codec::ByteCursor;
use crate::codec::{decode_str, encode_str, Format};
use crate::error::AdaSenseError;
use crate::fleet::DeviceSummary;

// ---------------------------------------------------------------------------
// ExactSum
// ---------------------------------------------------------------------------

/// Number of 64-bit limbs in the superaccumulator.  Finite-double mantissa
/// bits occupy positions `0..=2097` (scaled by 2^-1074); the remaining 78
/// bits are carry headroom for far more than 2^64 additions.
const LIMBS: usize = 34;

/// An exact, order-independent sum of `f64` values.
///
/// The accumulator keeps the *exact* sum of every finite addend as a
/// fixed-point big integer covering the entire double range (one magnitude
/// per sign), plus counters for non-finite inputs.  Consequences:
///
/// * Adding the same multiset of values in **any order** — including adding
///   them on different shards and merging — produces bit-identical state.
/// * [`value`](ExactSum::value) rounds the exact sum to the nearest `f64`
///   (ties to even), so the returned double is also order-independent.
/// * NaN and infinities are tracked by count and dominate the result the way
///   IEEE addition would (any NaN → NaN, opposing infinities → NaN).
///
/// # Examples
///
/// ```
/// use adasense::shard::ExactSum;
///
/// let mut forward = ExactSum::new();
/// let mut backward = ExactSum::new();
/// let values = [0.1, 0.2, 0.3, 1e100, -1e100];
/// for v in values {
///     forward.add(v);
/// }
/// for v in values.iter().rev() {
///     backward.add(*v);
/// }
/// // Float addition would disagree between the two orders; the exact
/// // accumulator cannot, and it returns the correctly rounded sum (which
/// // left-to-right float addition of these values does not produce).
/// assert_eq!(forward, backward);
/// assert_eq!(forward.value(), 0.6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum {
    /// Magnitude of the positive addends, little-endian base-2^64, bit 0 =
    /// 2^-1074.
    pos: [u64; LIMBS],
    /// Magnitude of the negative addends (same scale).
    neg: [u64; LIMBS],
    /// Number of NaN addends.
    nan: u64,
    /// Number of `+inf` addends.
    pos_inf: u64,
    /// Number of `-inf` addends.
    neg_inf: u64,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactSum {
    /// An empty sum (value `0.0`).
    pub fn new() -> Self {
        Self { pos: [0; LIMBS], neg: [0; LIMBS], nan: 0, pos_inf: 0, neg_inf: 0 }
    }

    /// Adds one value.
    pub fn add(&mut self, value: f64) {
        let bits = value.to_bits();
        let exponent = ((bits >> 52) & 0x7ff) as u32;
        let fraction = bits & ((1u64 << 52) - 1);
        let negative = bits >> 63 == 1;
        if exponent == 0x7ff {
            if fraction != 0 {
                self.nan += 1;
            } else if negative {
                self.neg_inf += 1;
            } else {
                self.pos_inf += 1;
            }
            return;
        }
        // value = mantissa × 2^(shift - 1074) with mantissa < 2^53.
        let (mantissa, shift) = if exponent == 0 {
            (fraction, 0u32) // subnormal (or zero: a no-op addition)
        } else {
            (fraction | (1u64 << 52), exponent - 1)
        };
        if mantissa == 0 {
            return;
        }
        let limbs = if negative { &mut self.neg } else { &mut self.pos };
        add_shifted(limbs, mantissa, shift as usize);
    }

    /// Merges another accumulator into this one.  Equivalent to adding every
    /// value the other accumulator has seen; exact, so order never matters.
    pub fn merge(&mut self, other: &ExactSum) {
        add_limbs(&mut self.pos, &other.pos);
        add_limbs(&mut self.neg, &other.neg);
        self.nan += other.nan;
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
    }

    /// The sum, correctly rounded to the nearest `f64` (ties to even).
    ///
    /// NaN if any addend was NaN or both infinities appeared; the respective
    /// infinity if only one sign of infinity appeared.  A zero sum is always
    /// `+0.0`: the accumulator does not track the sign of zero (IEEE addition
    /// itself yields `+0.0` for every cancelling sum — only multisets of
    /// nothing but `-0.0` would differ).
    pub fn value(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        match compare_limbs(&self.pos, &self.neg) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => round_limbs(&sub_limbs(&self.pos, &self.neg)),
            std::cmp::Ordering::Less => -round_limbs(&sub_limbs(&self.neg, &self.pos)),
        }
    }

    /// Writes the canonical binary form (fixed length) into `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        for limb in self.pos.iter().chain(&self.neg) {
            out.extend_from_slice(&limb.to_le_bytes());
        }
        out.extend_from_slice(&self.nan.to_le_bytes());
        out.extend_from_slice(&self.pos_inf.to_le_bytes());
        out.extend_from_slice(&self.neg_inf.to_le_bytes());
    }

    /// Reads the canonical binary form written by `encode_into`.
    fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, AdaSenseError> {
        let mut sum = Self::new();
        for limb in sum.pos.iter_mut().chain(&mut sum.neg) {
            *limb = cursor.u64()?;
        }
        sum.nan = cursor.u64()?;
        sum.pos_inf = cursor.u64()?;
        sum.neg_inf = cursor.u64()?;
        Ok(sum)
    }
}

/// Adds `mantissa × 2^shift` into the little-endian limb array.
fn add_shifted(limbs: &mut [u64; LIMBS], mantissa: u64, shift: usize) {
    let limb = shift / 64;
    let offset = shift % 64;
    let wide = (mantissa as u128) << offset; // ≤ 53 + 63 bits, fits u128
    let mut carry: u128 = wide;
    let mut i = limb;
    while carry != 0 {
        debug_assert!(i < LIMBS, "superaccumulator overflow (more than ~2^78 device-sums)");
        let sum = limbs[i] as u128 + (carry & u64::MAX as u128);
        limbs[i] = sum as u64;
        carry = (carry >> 64) + (sum >> 64);
        i += 1;
    }
}

/// `a += b` over little-endian limb arrays.
fn add_limbs(a: &mut [u64; LIMBS], b: &[u64; LIMBS]) {
    let mut carry = 0u128;
    for (x, y) in a.iter_mut().zip(b) {
        let sum = *x as u128 + *y as u128 + carry;
        *x = sum as u64;
        carry = sum >> 64;
    }
    debug_assert_eq!(carry, 0, "superaccumulator overflow");
}

/// Lexicographic (numeric) comparison of two magnitudes.
fn compare_limbs(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> std::cmp::Ordering {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// `a - b` over little-endian limb arrays; requires `a >= b`.
fn sub_limbs(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
    let mut out = [0u64; LIMBS];
    let mut borrow = 0u64;
    for i in 0..LIMBS {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 || b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "sub_limbs requires a >= b");
    out
}

/// Bit `position` of the magnitude (0 = least significant).
fn limb_bit(limbs: &[u64; LIMBS], position: usize) -> bool {
    (limbs[position / 64] >> (position % 64)) & 1 == 1
}

/// Rounds the non-zero magnitude `limbs × 2^-1074` to the nearest `f64`
/// (ties to even).  Returns `+inf` if the exact sum overflows the double
/// range.
fn round_limbs(limbs: &[u64; LIMBS]) -> f64 {
    let top = (0..LIMBS * 64).rev().find(|&i| limb_bit(limbs, i)).expect("magnitude is non-zero");
    if top <= 52 {
        // Fits in the subnormal/smallest-normal ladder exactly: integers
        // below 2^53 map to `bits × 2^-1074` verbatim.
        return f64::from_bits(limbs[0] & ((1u64 << (top + 1)) - 1));
    }
    let shift = top - 52;
    // The 53 bits ending at `top`.
    let mut mantissa = extract_bits(limbs, shift, 53);
    // Round to nearest, ties to even, on the bits below `shift`.
    let round = limb_bit(limbs, shift - 1);
    let sticky = (0..shift - 1).any(|i| limb_bit(limbs, i));
    if round && (sticky || mantissa & 1 == 1) {
        mantissa += 1;
    }
    let mut exponent_field = shift as u64 + 1;
    if mantissa == 1u64 << 53 {
        mantissa >>= 1;
        exponent_field += 1;
    }
    if exponent_field >= 0x7ff {
        return f64::INFINITY;
    }
    f64::from_bits((exponent_field << 52) | (mantissa & ((1u64 << 52) - 1)))
}

/// The `width` bits of the magnitude starting at bit `shift` (width ≤ 64).
fn extract_bits(limbs: &[u64; LIMBS], shift: usize, width: usize) -> u64 {
    let limb = shift / 64;
    let offset = shift % 64;
    let mut bits = limbs[limb] >> offset;
    if offset != 0 && limb + 1 < LIMBS {
        bits |= limbs[limb + 1] << (64 - offset);
    }
    if width < 64 {
        bits &= (1u64 << width) - 1;
    }
    bits
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

/// A mergeable quantile sketch over fixed, data-independent buckets.
///
/// Each value is bucketed by its sign, exponent and top
/// [`MANTISSA_BITS`](QuantileSketch::MANTISSA_BITS) mantissa bits (the
/// IEEE-754 total order, chopped).  Because buckets are fixed a priori, merge
/// is plain bucket-count addition — exactly associative and commutative, so a
/// sketch built from shards is bit-identical to one built monolithically, in
/// any merge order.  This is the property that lets `fleet_shard` prove
/// sharded == monolithic byte-for-byte; a classic t-digest cannot offer it,
/// because centroid re-compression makes the state depend on the merge tree.
///
/// [`percentile`](QuantileSketch::percentile) answers with the toward-zero
/// (magnitude-truncated) end of the bucket holding the nearest-rank element:
/// the answer is exact for values with ≤ 12 significant mantissa bits and
/// otherwise off the true order statistic — toward zero — by less than one
/// part in 2^12 (≈ 0.025%).
///
/// NaN values are counted separately and ordered after every number (the
/// common positive-NaN convention of `f64::total_cmp`); a sketch holding only
/// NaN reports NaN percentiles.
///
/// # Examples
///
/// ```
/// use adasense::shard::QuantileSketch;
///
/// let mut left = QuantileSketch::new();
/// let mut right = QuantileSketch::new();
/// for v in [1.0, 2.0] {
///     left.insert(v);
/// }
/// for v in [3.0, 4.0] {
///     right.insert(v);
/// }
/// let mut merged = left.clone();
/// merged.merge(&right);
///
/// let mut monolithic = QuantileSketch::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     monolithic.insert(v);
/// }
/// assert_eq!(merged, monolithic);
/// assert_eq!(merged.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSketch {
    /// Bucket key (chopped total-order bit pattern) → count.
    buckets: BTreeMap<u64, u64>,
    /// Number of non-NaN values inserted.
    count: u64,
    /// Number of NaN values inserted.
    nan: u64,
}

impl QuantileSketch {
    /// Mantissa bits kept when bucketing: 2^12 buckets per binade, relative
    /// quantile error below 2^-12.
    pub const MANTISSA_BITS: u32 = 12;

    /// Low mantissa bits chopped off the total-order key.
    const SHIFT: u32 = 52 - Self::MANTISSA_BITS;

    /// An empty sketch (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of values inserted (NaN included).
    pub fn len(&self) -> u64 {
        self.count + self.nan
    }

    /// Whether the sketch has seen no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of occupied buckets (the memory bound: at most one per distinct
    /// sign × exponent × top-12-mantissa pattern in the data, never more than
    /// the number of inserted values).
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Inserts one value.
    pub fn insert(&mut self, value: f64) {
        if value.is_nan() {
            self.nan += 1;
            return;
        }
        let key = total_order_key(value) >> Self::SHIFT;
        *self.buckets.entry(key).or_insert(0) += 1;
        self.count += 1;
    }

    /// Merges another sketch into this one (bucket-count addition: exactly
    /// associative and commutative, with the empty sketch as identity).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (key, n) in &other.buckets {
            *self.buckets.entry(*key).or_insert(0) += n;
        }
        self.count += other.count;
        self.nan += other.nan;
    }

    /// The `p`-th percentile (nearest-rank, `0 < p <= 100`), answered as the
    /// magnitude-truncated representative of the bucket holding the
    /// nearest-rank element.  [`f64::NAN`] for an empty sketch, and NaN when
    /// the nearest-rank element is one of the NaN inputs (they order last).
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.len();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        if rank > self.count {
            return f64::NAN; // inside the trailing NaN block
        }
        let mut seen = 0u64;
        for (key, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_value(*key);
            }
        }
        unreachable!("rank <= count implies some bucket reaches it")
    }

    /// Writes the canonical binary form into `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.nan.to_le_bytes());
        out.extend_from_slice(&(self.buckets.len() as u64).to_le_bytes());
        for (key, n) in &self.buckets {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }

    /// Reads the canonical binary form written by `encode_into`.
    fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, AdaSenseError> {
        let count = cursor.u64()?;
        let nan = cursor.u64()?;
        let buckets = cursor.u64()?;
        let mut sketch = Self { buckets: BTreeMap::new(), count, nan };
        let mut total = 0u64;
        for _ in 0..buckets {
            let key = cursor.u64()?;
            let n = cursor.u64()?;
            if n == 0 || sketch.buckets.insert(key, n).is_some() {
                return Err(AdaSenseError::shard("sketch encoding is not canonical"));
            }
            total = total
                .checked_add(n)
                .ok_or_else(|| AdaSenseError::shard("sketch bucket counts overflow a u64"))?;
        }
        if total != count {
            return Err(AdaSenseError::shard(format!(
                "sketch bucket counts sum to {total}, header claims {count}"
            )));
        }
        Ok(sketch)
    }
}

/// Maps `f64` bits to a key whose unsigned order equals `f64::total_cmp`
/// order (sign-magnitude → biased).
fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

/// Inverse of [`total_order_key`].
fn from_total_order_key(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1u64 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The representative value of a chopped bucket key: the magnitude-truncated
/// (toward-zero) end of the bucket, so every value whose mantissa fits in
/// [`QuantileSketch::MANTISSA_BITS`] represents itself exactly, positive or
/// negative.  For positive buckets that end has the chopped low key bits zero;
/// for negative buckets the total-order key is bit-complemented, so the
/// toward-zero end has them one.
fn bucket_value(chopped: u64) -> f64 {
    let negative = (chopped >> (63 - QuantileSketch::SHIFT)) & 1 == 0;
    let key = chopped << QuantileSketch::SHIFT;
    let key = if negative { key | ((1u64 << QuantileSketch::SHIFT) - 1) } else { key };
    from_total_order_key(key)
}

// ---------------------------------------------------------------------------
// Metric and group statistics
// ---------------------------------------------------------------------------

/// One population metric: an exact sum (for the mean) plus a quantile sketch
/// (for percentiles).  Both halves are order-independent, so the whole stat
/// merges bit-deterministically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricStat {
    /// Number of observed values.
    pub count: u64,
    /// Exact sum of the observed values.
    pub sum: ExactSum,
    /// Quantile sketch of the observed values.
    pub sketch: QuantileSketch,
}

impl MetricStat {
    /// Observes one value.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum.add(value);
        self.sketch.insert(value);
    }

    /// Merges another stat into this one.
    pub fn merge(&mut self, other: &MetricStat) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        self.sketch.merge(&other.sketch);
    }

    /// Mean of the observed values ([`f64::NAN`] when empty — a fabricated 0
    /// would read as a real figure).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum.value() / self.count as f64
        }
    }

    /// Nearest-rank percentile (see [`QuantileSketch::percentile`]).
    pub fn percentile(&self, p: f64) -> f64 {
        self.sketch.percentile(p)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.count.to_le_bytes());
        self.sum.encode_into(out);
        self.sketch.encode_into(out);
    }

    fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, AdaSenseError> {
        Ok(Self {
            count: cursor.u64()?,
            sum: ExactSum::decode_from(cursor)?,
            sketch: QuantileSketch::decode_from(cursor)?,
        })
    }
}

/// Mergeable statistics of one device group (a routine or a backend).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupStat {
    /// Number of devices in the group.
    pub devices: u64,
    /// Total classified epochs of the group.
    pub epochs: u64,
    /// Exact sum of per-device accuracy.
    pub accuracy: ExactSum,
    /// Exact sum of per-device average current (µA).
    pub current_ua: ExactSum,
    /// Exact sum of per-device fault-exposed epoch fractions.
    pub faulted_fraction: ExactSum,
}

impl GroupStat {
    /// Folds one device into the group.
    fn observe(&mut self, device: &DeviceSummary) {
        self.devices += 1;
        self.epochs += device.epochs as u64;
        self.accuracy.add(device.accuracy);
        self.current_ua.add(device.average_current_ua);
        self.faulted_fraction.add(device.faulted_fraction());
    }

    /// Merges another group into this one.
    fn merge(&mut self, other: &GroupStat) {
        self.devices += other.devices;
        self.epochs += other.epochs;
        self.accuracy.merge(&other.accuracy);
        self.current_ua.merge(&other.current_ua);
        self.faulted_fraction.merge(&other.faulted_fraction);
    }

    /// Mean of an exact sum over the group's devices (NaN when empty).
    pub fn mean_of(&self, sum: &ExactSum) -> f64 {
        if self.devices == 0 {
            f64::NAN
        } else {
            sum.value() / self.devices as f64
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.devices.to_le_bytes());
        out.extend_from_slice(&self.epochs.to_le_bytes());
        self.accuracy.encode_into(out);
        self.current_ua.encode_into(out);
        self.faulted_fraction.encode_into(out);
    }

    fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, AdaSenseError> {
        Ok(Self {
            devices: cursor.u64()?,
            epochs: cursor.u64()?,
            accuracy: ExactSum::decode_from(cursor)?,
            current_ua: ExactSum::decode_from(cursor)?,
            faulted_fraction: ExactSum::decode_from(cursor)?,
        })
    }
}

// ---------------------------------------------------------------------------
// FleetStats
// ---------------------------------------------------------------------------

/// Magic bytes opening an encoded fleet-report aggregate.
pub const REPORT_MAGIC: [u8; 4] = *b"ADSR";
/// Version of the report encoding this build writes and accepts.
/// Version 2 added the cascade early-exit/escalation counters; version 3
/// added the per-policy transmission counters; version 4 added the fleet
/// churn counters (joined/departed totals and the lifetime timeline behind
/// [`FleetStats::active_peak`]).
pub const REPORT_VERSION: u16 = 4;

/// The ADSR report format, as its cursor and header check see it.
pub(crate) static ADSR: Format = Format {
    magic: REPORT_MAGIC,
    versions: &[REPORT_VERSION],
    error: |reason| AdaSenseError::Shard { reason },
};

/// The complete mergeable state of a fleet report: everything
/// [`FleetReport`](crate::fleet::FleetReport) can answer, in memory bounded
/// by the *diversity* of the population (routines × backends × sketch
/// buckets), never by its size.
///
/// Every field is order-independent under [`observe`](FleetStats::observe)
/// and [`merge`](FleetStats::merge), so shard aggregates combine into exactly
/// the monolithic aggregate (see the module docs for the canonical — but not
/// required — ascending merge order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetStats {
    /// Number of devices observed.
    pub devices: u64,
    /// Total classified epochs.
    pub epochs: u64,
    /// Total correctly classified epochs.
    pub correct_epochs: u64,
    /// Total fault-exposed classified epochs.
    pub faulted_epochs: u64,
    /// Total epochs cascade backends answered at their cheap first stage
    /// (0 when no device ran a cascade).
    pub early_exit_epochs: u64,
    /// Early-exit epochs classified correctly.
    pub early_exit_correct: u64,
    /// Total epochs cascade backends escalated to their full second stage.
    pub escalated_epochs: u64,
    /// Escalated epochs classified correctly.
    pub escalated_correct: u64,
    /// Devices that joined the cohort after fleet epoch 0 (late joiners).
    pub joined: u64,
    /// Devices that departed before draining their full stream (early
    /// departures finalized at their last completed epoch).
    pub departed: u64,
    /// Net cohort-size change at each fleet epoch: `+1` where a device's
    /// lifetime starts, `-1` one past where it ends.  Pointwise-additive, so
    /// shard merges stay associative; [`active_peak`](FleetStats::active_peak)
    /// folds it into the peak concurrent cohort size.
    pub lifetimes: BTreeMap<u64, i64>,
    /// Total classified epochs transmitted under each [`TxPolicy`], indexed
    /// by [`TxPolicy::index`] (all zero when transmission modelling is off).
    pub tx_epochs: [u64; TxPolicy::COUNT],
    /// Total payload bytes transmitted under each policy.
    pub tx_bytes: [u64; TxPolicy::COUNT],
    /// Exact total radio charge spent under each policy, µC.
    pub tx_charge_uc: [ExactSum; TxPolicy::COUNT],
    /// Exact total simulated duration, seconds.
    pub duration_s: ExactSum,
    /// Exact total sensor charge, µC.
    pub charge_uc: ExactSum,
    /// Per-device accuracy (0–1).
    pub accuracy: MetricStat,
    /// Per-device average current, µA.
    pub current_ua: MetricStat,
    /// Per-device fault-exposed epoch fraction (0–1).
    pub faulted_fraction: MetricStat,
    /// Per-device residency fraction, one stat per configuration, indexed by
    /// [`SensorConfig::index`].
    pub residency: Vec<MetricStat>,
    /// Per-routine groups, keyed by routine label.
    pub routines: BTreeMap<String, GroupStat>,
    /// Per-backend groups, keyed by backend label.
    pub backends: BTreeMap<String, GroupStat>,
}

impl FleetStats {
    /// An empty aggregate (the merge identity).
    pub fn new() -> Self {
        Self {
            residency: (0..SensorConfig::COUNT).map(|_| MetricStat::default()).collect(),
            ..Self::default()
        }
    }

    /// Folds one completed device into the aggregate.
    pub fn observe(&mut self, device: &DeviceSummary) {
        self.devices += 1;
        self.epochs += device.epochs as u64;
        self.correct_epochs += device.correct_epochs as u64;
        self.faulted_epochs += device.faulted_epochs as u64;
        self.early_exit_epochs += device.early_exit_epochs as u64;
        self.early_exit_correct += device.early_exit_correct as u64;
        self.escalated_epochs += device.escalated_epochs as u64;
        self.escalated_correct += device.escalated_correct as u64;
        self.joined += u64::from(device.start_epoch > 0);
        self.departed += u64::from(device.departed);
        *self.lifetimes.entry(device.start_epoch).or_insert(0) += 1;
        *self.lifetimes.entry(device.start_epoch + device.epochs as u64).or_insert(0) -= 1;
        for index in 0..TxPolicy::COUNT {
            self.tx_epochs[index] += device.tx_epochs.get(index).copied().unwrap_or(0);
            self.tx_bytes[index] += device.tx_bytes.get(index).copied().unwrap_or(0);
            self.tx_charge_uc[index].add(device.tx_charge_uc.get(index).copied().unwrap_or(0.0));
        }
        self.duration_s.add(device.duration_s);
        self.charge_uc.add(device.total_charge_uc);
        self.accuracy.observe(device.accuracy);
        self.current_ua.observe(device.average_current_ua);
        self.faulted_fraction.observe(device.faulted_fraction());
        for (index, stat) in self.residency.iter_mut().enumerate() {
            let config = SensorConfig::from_index(index).expect("index < COUNT");
            stat.observe(device.residency_fraction(config));
        }
        self.routines.entry(device.routine.clone()).or_default().observe(device);
        self.backends.entry(device.backend.clone()).or_default().observe(device);
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &FleetStats) {
        self.devices += other.devices;
        self.epochs += other.epochs;
        self.correct_epochs += other.correct_epochs;
        self.faulted_epochs += other.faulted_epochs;
        self.early_exit_epochs += other.early_exit_epochs;
        self.early_exit_correct += other.early_exit_correct;
        self.escalated_epochs += other.escalated_epochs;
        self.escalated_correct += other.escalated_correct;
        self.joined += other.joined;
        self.departed += other.departed;
        for (&epoch, &delta) in &other.lifetimes {
            *self.lifetimes.entry(epoch).or_insert(0) += delta;
        }
        for index in 0..TxPolicy::COUNT {
            self.tx_epochs[index] += other.tx_epochs[index];
            self.tx_bytes[index] += other.tx_bytes[index];
            self.tx_charge_uc[index].merge(&other.tx_charge_uc[index]);
        }
        self.duration_s.merge(&other.duration_s);
        self.charge_uc.merge(&other.charge_uc);
        self.accuracy.merge(&other.accuracy);
        self.current_ua.merge(&other.current_ua);
        self.faulted_fraction.merge(&other.faulted_fraction);
        for (mine, theirs) in self.residency.iter_mut().zip(&other.residency) {
            mine.merge(theirs);
        }
        for (label, group) in &other.routines {
            self.routines.entry(label.clone()).or_default().merge(group);
        }
        for (label, group) in &other.backends {
            self.backends.entry(label.clone()).or_default().merge(group);
        }
    }

    /// Peak number of devices whose lifetimes overlapped at any fleet epoch.
    ///
    /// A running prefix sum over the [`lifetimes`](FleetStats::lifetimes)
    /// timeline: the answer is the same whether the rows arrived monolithic
    /// or were merged from shards, because the timeline itself is.
    pub fn active_peak(&self) -> u64 {
        let mut active = 0i64;
        let mut peak = 0i64;
        for delta in self.lifetimes.values() {
            active += delta;
            peak = peak.max(active);
        }
        peak.max(0) as u64
    }

    /// Writes the canonical binary form into `out` (no magic/version — the
    /// caller frames it; [`crate::fleet::FleetReport::encode`] is the framed
    /// entry point).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.devices.to_le_bytes());
        out.extend_from_slice(&self.epochs.to_le_bytes());
        out.extend_from_slice(&self.correct_epochs.to_le_bytes());
        out.extend_from_slice(&self.faulted_epochs.to_le_bytes());
        out.extend_from_slice(&self.early_exit_epochs.to_le_bytes());
        out.extend_from_slice(&self.early_exit_correct.to_le_bytes());
        out.extend_from_slice(&self.escalated_epochs.to_le_bytes());
        out.extend_from_slice(&self.escalated_correct.to_le_bytes());
        out.extend_from_slice(&self.joined.to_le_bytes());
        out.extend_from_slice(&self.departed.to_le_bytes());
        out.extend_from_slice(&(self.lifetimes.len() as u64).to_le_bytes());
        for (&epoch, &delta) in &self.lifetimes {
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&delta.to_le_bytes());
        }
        for index in 0..TxPolicy::COUNT {
            out.extend_from_slice(&self.tx_epochs[index].to_le_bytes());
            out.extend_from_slice(&self.tx_bytes[index].to_le_bytes());
            self.tx_charge_uc[index].encode_into(out);
        }
        self.duration_s.encode_into(out);
        self.charge_uc.encode_into(out);
        self.accuracy.encode_into(out);
        self.current_ua.encode_into(out);
        self.faulted_fraction.encode_into(out);
        out.extend_from_slice(&(self.residency.len() as u64).to_le_bytes());
        for stat in &self.residency {
            stat.encode_into(out);
        }
        encode_groups(out, &self.routines);
        encode_groups(out, &self.backends);
    }

    /// Reads the canonical binary form written by
    /// [`encode_into`](FleetStats::encode_into).
    pub fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, AdaSenseError> {
        let devices = cursor.u64()?;
        let epochs = cursor.u64()?;
        let correct_epochs = cursor.u64()?;
        let faulted_epochs = cursor.u64()?;
        let early_exit_epochs = cursor.u64()?;
        let early_exit_correct = cursor.u64()?;
        let escalated_epochs = cursor.u64()?;
        let escalated_correct = cursor.u64()?;
        let joined = cursor.u64()?;
        let departed = cursor.u64()?;
        let lifetimes_len = cursor.u64()? as usize;
        let mut lifetimes = BTreeMap::new();
        for _ in 0..lifetimes_len {
            let epoch = cursor.u64()?;
            let delta = cursor.u64()? as i64;
            if lifetimes.insert(epoch, delta).is_some() {
                return Err(AdaSenseError::shard("duplicate lifetime epoch in report encoding"));
            }
        }
        let mut tx_epochs = [0u64; TxPolicy::COUNT];
        let mut tx_bytes = [0u64; TxPolicy::COUNT];
        let mut tx_charge_uc: [ExactSum; TxPolicy::COUNT] = Default::default();
        for index in 0..TxPolicy::COUNT {
            tx_epochs[index] = cursor.u64()?;
            tx_bytes[index] = cursor.u64()?;
            tx_charge_uc[index] = ExactSum::decode_from(cursor)?;
        }
        let duration_s = ExactSum::decode_from(cursor)?;
        let charge_uc = ExactSum::decode_from(cursor)?;
        let accuracy = MetricStat::decode_from(cursor)?;
        let current_ua = MetricStat::decode_from(cursor)?;
        let faulted_fraction = MetricStat::decode_from(cursor)?;
        let residency_len = cursor.u64()? as usize;
        if residency_len != SensorConfig::COUNT {
            return Err(AdaSenseError::shard(format!(
                "report carries {residency_len} residency stats, this build has {} configurations",
                SensorConfig::COUNT
            )));
        }
        let mut residency = Vec::with_capacity(residency_len);
        for _ in 0..residency_len {
            residency.push(MetricStat::decode_from(cursor)?);
        }
        let routines = decode_groups(cursor)?;
        let backends = decode_groups(cursor)?;
        Ok(Self {
            devices,
            epochs,
            correct_epochs,
            faulted_epochs,
            early_exit_epochs,
            early_exit_correct,
            escalated_epochs,
            escalated_correct,
            joined,
            departed,
            lifetimes,
            tx_epochs,
            tx_bytes,
            tx_charge_uc,
            duration_s,
            charge_uc,
            accuracy,
            current_ua,
            faulted_fraction,
            residency,
            routines,
            backends,
        })
    }
}

fn encode_groups(out: &mut Vec<u8>, groups: &BTreeMap<String, GroupStat>) {
    out.extend_from_slice(&(groups.len() as u64).to_le_bytes());
    for (label, group) in groups {
        encode_str(out, label);
        group.encode_into(out);
    }
}

fn decode_groups(
    cursor: &mut ByteCursor<'_>,
) -> Result<BTreeMap<String, GroupStat>, AdaSenseError> {
    let len = cursor.u64()?;
    let mut groups = BTreeMap::new();
    for _ in 0..len {
        let label = decode_str(cursor)?;
        let group = GroupStat::decode_from(cursor)?;
        if groups.insert(label, group).is_some() {
            return Err(AdaSenseError::shard("duplicate group label in report encoding"));
        }
    }
    Ok(groups)
}

// ---------------------------------------------------------------------------
// Shard ranges
// ---------------------------------------------------------------------------

/// A contiguous device-id range `[start, end)` of one shard.
///
/// Produced by [`FleetSpec::shards`](crate::fleet::FleetSpec::shards), which
/// aligns boundaries to lockstep-chunk multiples so a shard schedules exactly
/// the chunks the monolithic run would — per-device results are independent
/// of chunking anyway (the batch path is contractually bit-identical per
/// row), but aligned shards also keep scheduling transcripts comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First device id of the shard.
    pub start: u64,
    /// One past the last device id of the shard.
    pub end: u64,
}

impl ShardRange {
    /// The whole-fleet range of a monolithic run over `devices` devices.
    pub fn whole(devices: u64) -> Self {
        Self { start: 0, end: devices }
    }

    /// Number of devices in the shard.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the shard holds no devices (an empty shard merges as the
    /// identity).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Splits the chunk grid of `devices` devices (chunks of `lockstep` ids) into
/// `shards` contiguous, chunk-aligned, maximally balanced ranges.  Trailing
/// shards may be empty when there are fewer chunks than shards.
pub(crate) fn shard_ranges(devices: u64, lockstep: u64, shards: usize) -> Vec<ShardRange> {
    let shards = shards.max(1) as u64;
    let chunks = devices.div_ceil(lockstep.max(1));
    let per_shard = chunks / shards;
    let remainder = chunks % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut chunk = 0u64;
    for shard in 0..shards {
        let take = per_shard + u64::from(shard < remainder);
        let start = (chunk * lockstep).min(devices);
        let end = ((chunk + take) * lockstep).min(devices);
        ranges.push(ShardRange { start, end });
        chunk += take;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Summary sinks and the on-disk spool
// ---------------------------------------------------------------------------

/// Receives completed [`DeviceSummary`] rows as their devices finish.
///
/// Each row arrives the moment its device completes, so rows come in
/// device-**completion** order across the worker pool, which depends on
/// worker scheduling; consumers must not rely on row order (sort by
/// `device_id` when order matters).  The mergeable
/// [`FleetReport`](crate::fleet::FleetReport) is deliberately insensitive to
/// this: its state is identical for any arrival order.
pub trait SummarySink: Send {
    /// Accepts one completed device row.
    ///
    /// # Errors
    ///
    /// Any error aborts the fleet run and is propagated to the caller.
    fn push(&mut self, row: &DeviceSummary) -> Result<(), AdaSenseError>;
}

/// A sink that drops every row — the bounded-memory default when only the
/// aggregate report is wanted.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink;

impl SummarySink for DiscardSink {
    fn push(&mut self, _row: &DeviceSummary) -> Result<(), AdaSenseError> {
        Ok(())
    }
}

impl SummarySink for Vec<DeviceSummary> {
    /// Collects rows in arrival (device-completion) order.
    fn push(&mut self, row: &DeviceSummary) -> Result<(), AdaSenseError> {
        self.push(row.clone());
        Ok(())
    }
}

/// Magic bytes opening a device-summary spool.
pub const SPOOL_MAGIC: [u8; 4] = *b"ADSP";
/// Version of the spool encoding this build writes and accepts.
/// Version 2 added the per-row cascade early-exit/escalation counters;
/// version 3 added the per-policy transmission counters; version 4 added the
/// per-row churn lifetime (start epoch + departed flag).
pub const SPOOL_VERSION: u16 = 4;

/// The ADSP spool format, as its cursor and header check see it.
static ADSP: Format = Format {
    magic: SPOOL_MAGIC,
    versions: &[SPOOL_VERSION],
    error: |reason| AdaSenseError::Shard { reason },
};

/// Frame-kind tag of one spooled row.
const SPOOL_KIND_ROW: u8 = 0x01;
/// Frame-kind tag of the spool end marker.
const SPOOL_KIND_END: u8 = 0x02;
/// Upper bound on one spool frame (a row is ~150 bytes; the cap rejects
/// corrupt length prefixes before any allocation).
const SPOOL_MAX_FRAME: usize = 1 << 16;

/// Streams completed [`DeviceSummary`] rows to a writer as compact
/// length-prefixed binary frames, so a shard's per-device detail lands on
/// disk instead of accumulating in RAM (layout in `docs/WIRE_FORMAT.md`).
///
/// Call [`finish`](SpoolWriter::finish) when the run completes — a spool
/// without its end marker is treated as torn by [`SpoolReader`], exactly like
/// a truncated telemetry stream.
///
/// # Examples
///
/// ```
/// use adasense::shard::{SpoolReader, SpoolWriter};
///
/// let mut bytes = Vec::new();
/// let writer = SpoolWriter::new(&mut bytes).unwrap();
/// // … push completed rows during the run …
/// writer.finish().unwrap();
/// let rows: Vec<_> = SpoolReader::new(&bytes[..])
///     .unwrap()
///     .collect::<Result<Vec<_>, _>>()
///     .unwrap();
/// assert!(rows.is_empty());
/// ```
#[derive(Debug)]
pub struct SpoolWriter<W: Write> {
    writer: W,
    buf: Vec<u8>,
    rows: u64,
}

impl<W: Write> SpoolWriter<W> {
    /// Wraps `writer` and writes the spool header.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Shard`] when the writer fails.
    pub fn new(mut writer: W) -> Result<Self, AdaSenseError> {
        let mut head = Vec::with_capacity(8);
        head.extend_from_slice(&SPOOL_MAGIC);
        head.extend_from_slice(&SPOOL_VERSION.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes());
        writer.write_all(&head).map_err(spool_io)?;
        Ok(Self { writer, buf: Vec::new(), rows: 0 })
    }

    /// Number of rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Writes the end marker (carrying the row count as an integrity check)
    /// and flushes, returning the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Shard`] when the writer fails.
    pub fn finish(mut self) -> Result<W, AdaSenseError> {
        self.buf.clear();
        self.buf.extend_from_slice(&9u32.to_le_bytes());
        self.buf.push(SPOOL_KIND_END);
        self.buf.extend_from_slice(&self.rows.to_le_bytes());
        self.writer.write_all(&self.buf).map_err(spool_io)?;
        self.writer.flush().map_err(spool_io)?;
        Ok(self.writer)
    }
}

impl<W: Write + Send> SummarySink for SpoolWriter<W> {
    fn push(&mut self, row: &DeviceSummary) -> Result<(), AdaSenseError> {
        self.buf.clear();
        self.buf.extend_from_slice(&0u32.to_le_bytes()); // length, patched below
        self.buf.push(SPOOL_KIND_ROW);
        self.buf.extend_from_slice(&row.device_id.to_le_bytes());
        self.buf.extend_from_slice(&row.seed.to_le_bytes());
        encode_str(&mut self.buf, &row.routine);
        encode_str(&mut self.buf, &row.backend);
        self.buf.extend_from_slice(&(row.faulted_epochs as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.epochs as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.correct_epochs as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.early_exit_epochs as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.early_exit_correct as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.escalated_epochs as u64).to_le_bytes());
        self.buf.extend_from_slice(&(row.escalated_correct as u64).to_le_bytes());
        self.buf.extend_from_slice(&row.accuracy.to_le_bytes());
        self.buf.extend_from_slice(&row.average_current_ua.to_le_bytes());
        self.buf.extend_from_slice(&row.total_charge_uc.to_le_bytes());
        self.buf.extend_from_slice(&row.duration_s.to_le_bytes());
        self.buf.extend_from_slice(&(row.residency_s.len() as u16).to_le_bytes());
        for seconds in &row.residency_s {
            self.buf.extend_from_slice(&seconds.to_le_bytes());
        }
        self.buf.extend_from_slice(&(row.tx_epochs.len() as u16).to_le_bytes());
        for index in 0..row.tx_epochs.len() {
            self.buf.extend_from_slice(&row.tx_epochs[index].to_le_bytes());
            self.buf
                .extend_from_slice(&row.tx_bytes.get(index).copied().unwrap_or(0).to_le_bytes());
            self.buf.extend_from_slice(
                &row.tx_charge_uc.get(index).copied().unwrap_or(0.0).to_le_bytes(),
            );
        }
        self.buf.extend_from_slice(&row.start_epoch.to_le_bytes());
        self.buf.push(u8::from(row.departed));
        let payload_len = self.buf.len() - 4;
        assert!(payload_len <= SPOOL_MAX_FRAME, "spool row exceeds the frame cap");
        self.buf[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.writer.write_all(&self.buf).map_err(spool_io)?;
        self.rows += 1;
        Ok(())
    }
}

/// Reads a spool back as an iterator of [`DeviceSummary`] rows, validating
/// the header, every frame and the end marker's row count.
#[derive(Debug)]
pub struct SpoolReader<R: Read> {
    reader: R,
    payload: Vec<u8>,
    rows: u64,
    done: bool,
}

impl<R: Read> SpoolReader<R> {
    /// Wraps `reader` and validates the spool header.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Shard`] on bad magic, an unsupported version,
    /// non-zero flags or a truncated header.
    pub fn new(mut reader: R) -> Result<Self, AdaSenseError> {
        let mut head = [0u8; 8];
        reader
            .read_exact(&mut head)
            .map_err(|e| AdaSenseError::shard(format!("spool ended inside the header: {e}")))?;
        ADSP.cursor(&head).header()?;
        Ok(Self { reader, payload: Vec::new(), rows: 0, done: false })
    }

    /// Reads the next row, `Ok(None)` after a valid end marker.
    fn read_row(&mut self) -> Result<Option<DeviceSummary>, AdaSenseError> {
        let mut len_bytes = [0u8; 4];
        self.reader
            .read_exact(&mut len_bytes)
            .map_err(|e| AdaSenseError::shard(format!("spool ended inside a frame: {e}")))?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len == 0 || len > SPOOL_MAX_FRAME {
            return Err(AdaSenseError::shard(format!(
                "spool frame length {len} is outside 1..={SPOOL_MAX_FRAME}"
            )));
        }
        self.payload.resize(len, 0);
        self.reader
            .read_exact(&mut self.payload)
            .map_err(|e| AdaSenseError::shard(format!("spool ended inside a frame: {e}")))?;
        let mut cursor = ADSP.cursor(&self.payload);
        match cursor.u8()? {
            SPOOL_KIND_ROW => {
                let row = decode_summary(&mut cursor)?;
                cursor.finish()?;
                self.rows += 1;
                Ok(Some(row))
            }
            SPOOL_KIND_END => {
                let claimed = cursor.u64()?;
                cursor.finish()?;
                if claimed != self.rows {
                    return Err(AdaSenseError::shard(format!(
                        "spool end marker claims {claimed} rows, read {}",
                        self.rows
                    )));
                }
                self.done = true;
                Ok(None)
            }
            kind => Err(AdaSenseError::shard(format!("unknown spool frame kind {kind:#04x}"))),
        }
    }
}

impl<R: Read> Iterator for SpoolReader<R> {
    type Item = Result<DeviceSummary, AdaSenseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_row() {
            Ok(Some(row)) => Some(Ok(row)),
            Ok(None) => None,
            Err(error) => {
                self.done = true;
                Some(Err(error))
            }
        }
    }
}

fn decode_summary(cursor: &mut ByteCursor<'_>) -> Result<DeviceSummary, AdaSenseError> {
    let device_id = cursor.u64()?;
    let seed = cursor.u64()?;
    let routine = decode_str(cursor)?;
    let backend = decode_str(cursor)?;
    let faulted_epochs = cursor.u64()? as usize;
    let epochs = cursor.u64()? as usize;
    let correct_epochs = cursor.u64()? as usize;
    let early_exit_epochs = cursor.u64()? as usize;
    let early_exit_correct = cursor.u64()? as usize;
    let escalated_epochs = cursor.u64()? as usize;
    let escalated_correct = cursor.u64()? as usize;
    let accuracy = cursor.f64()?;
    let average_current_ua = cursor.f64()?;
    let total_charge_uc = cursor.f64()?;
    let duration_s = cursor.f64()?;
    let residency_len = cursor.u16()? as usize;
    if residency_len > SensorConfig::COUNT {
        return Err(AdaSenseError::shard(format!(
            "spooled row carries {residency_len} residency entries, this build has {}",
            SensorConfig::COUNT
        )));
    }
    let mut residency_s = Vec::with_capacity(residency_len);
    for _ in 0..residency_len {
        residency_s.push(cursor.f64()?);
    }
    let tx_len = cursor.u16()? as usize;
    if tx_len > TxPolicy::COUNT {
        return Err(AdaSenseError::shard(format!(
            "spooled row carries {tx_len} transmission entries, this build has {}",
            TxPolicy::COUNT
        )));
    }
    let mut tx_epochs = Vec::with_capacity(tx_len);
    let mut tx_bytes = Vec::with_capacity(tx_len);
    let mut tx_charge_uc = Vec::with_capacity(tx_len);
    for _ in 0..tx_len {
        tx_epochs.push(cursor.u64()?);
        tx_bytes.push(cursor.u64()?);
        tx_charge_uc.push(cursor.f64()?);
    }
    let start_epoch = cursor.u64()?;
    let departed = match cursor.u8()? {
        0 => false,
        1 => true,
        tag => {
            return Err(AdaSenseError::shard(format!(
                "spooled row carries departed flag {tag}, expected 0 or 1"
            )));
        }
    };
    Ok(DeviceSummary {
        device_id,
        seed,
        routine,
        backend,
        faulted_epochs,
        epochs,
        correct_epochs,
        early_exit_epochs,
        early_exit_correct,
        escalated_epochs,
        escalated_correct,
        accuracy,
        average_current_ua,
        total_charge_uc,
        duration_s,
        residency_s,
        tx_epochs,
        tx_bytes,
        tx_charge_uc,
        start_epoch,
        departed,
    })
}

fn spool_io(error: std::io::Error) -> AdaSenseError {
    AdaSenseError::shard(format!("writing the summary spool failed: {error}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[f64]) -> ExactSum {
        let mut sum = ExactSum::new();
        for &v in values {
            sum.add(v);
        }
        sum
    }

    #[test]
    fn exact_sum_matches_float_addition_on_single_values() {
        for v in [0.0, 1.0, -1.0, 0.1, 1e-308, 5e-324, 1e300, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(sum_of(&[v]).value().to_bits(), v.to_bits(), "round-trip of {v:e}");
        }
        // The sign of zero is not tracked: a zero sum is always +0.0.
        assert_eq!(sum_of(&[-0.0]).value().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn exact_sum_of_two_values_is_the_correctly_rounded_float_sum() {
        // A single float addition is correctly rounded, so for two addends the
        // exact accumulator must agree with it bit for bit.
        let pairs = [
            (0.1, 0.2),
            (1e16, 1.0),
            (1e300, 1e284),
            (5e-324, 5e-324),
            (1.0, f64::EPSILON / 2.0),
            (1.5, 2.5),
        ];
        for (a, b) in pairs {
            assert_eq!(sum_of(&[a, b]).value(), a + b, "{a:e} + {b:e}");
        }
    }

    #[test]
    fn exact_sum_survives_catastrophic_cancellation() {
        // Float left-to-right: (1e100 + 1) - 1e100 = 0.  Exact: 1.
        assert_eq!(sum_of(&[1e100, 1.0, -1e100]).value(), 1.0);
        assert_eq!(sum_of(&[1e100, -1e100]).value(), 0.0);
    }

    #[test]
    fn exact_sum_state_is_order_independent() {
        let values = [0.1, -7.25, 1e18, 5e-324, 3.5, -0.0, 1e-200, 42.0];
        let forward = sum_of(&values);
        let mut reversed: Vec<f64> = values.to_vec();
        reversed.reverse();
        assert_eq!(forward, sum_of(&reversed));
        // Merging split halves equals the straight pass.
        let mut merged = sum_of(&values[..3]);
        merged.merge(&sum_of(&values[3..]));
        assert_eq!(forward, merged);
        assert_eq!(forward.value(), merged.value());
    }

    #[test]
    fn exact_sum_handles_non_finite_inputs_like_ieee() {
        assert!(sum_of(&[1.0, f64::NAN]).value().is_nan());
        assert_eq!(sum_of(&[1.0, f64::INFINITY]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[f64::NEG_INFINITY, -1.0]).value(), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).value().is_nan());
    }

    #[test]
    fn exact_sum_overflow_saturates_to_infinity() {
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]).value(), f64::INFINITY);
    }

    #[test]
    fn sketch_percentiles_are_nearest_rank_on_exact_buckets() {
        // Values with short mantissas land on bucket lower bounds, so the
        // sketch reproduces the historic exact nearest-rank answers.
        let mut sketch = QuantileSketch::new();
        for v in [3.0, 1.0, 2.0, 4.0] {
            sketch.insert(v);
        }
        assert_eq!(sketch.percentile(50.0), 2.0);
        assert_eq!(sketch.percentile(100.0), 4.0);
        assert_eq!(sketch.percentile(1.0), 1.0);
    }

    #[test]
    fn sketch_percentile_error_is_bounded() {
        let mut sketch = QuantileSketch::new();
        let values: Vec<f64> = (0..1000).map(|i| 0.3 + 0.0007 * i as f64).collect();
        for &v in &values {
            sketch.insert(v);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = sketch.percentile(p);
            assert!(approx <= exact, "bucket lower bound cannot exceed the exact answer");
            assert!(
                (exact - approx) / exact < 1.0 / 4096.0,
                "p{p}: {approx} vs exact {exact} exceeds the 2^-12 relative bound"
            );
        }
    }

    #[test]
    fn sketch_merge_is_commutative_associative_with_identity() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut c = QuantileSketch::new();
        for v in [0.9, 0.95, f64::NAN] {
            a.insert(v);
        }
        for v in [0.5, 0.55] {
            b.insert(v);
        }
        c.insert(0.7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        let mut with_empty = a.clone();
        with_empty.merge(&QuantileSketch::new());
        assert_eq!(with_empty, a, "the empty sketch must be the merge identity");
    }

    #[test]
    fn sketch_orders_nan_last_and_empty_is_nan() {
        assert!(QuantileSketch::new().percentile(50.0).is_nan());
        let mut sketch = QuantileSketch::new();
        sketch.insert(1.0);
        sketch.insert(f64::NAN);
        assert_eq!(sketch.percentile(50.0), 1.0);
        assert!(sketch.percentile(100.0).is_nan(), "the NaN input orders last");
    }

    #[test]
    fn sketch_handles_negatives_in_value_order() {
        let mut sketch = QuantileSketch::new();
        for v in [-2.0, -1.0, 1.0, 2.0] {
            sketch.insert(v);
        }
        assert_eq!(sketch.percentile(25.0), -2.0);
        assert_eq!(sketch.percentile(50.0), -1.0);
        assert_eq!(sketch.percentile(100.0), 2.0);
    }

    #[test]
    fn shard_ranges_are_aligned_balanced_and_exhaustive() {
        let ranges = shard_ranges(100, 16, 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 100);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must tile the fleet");
        }
        for range in &ranges[..3] {
            assert_eq!(range.start % 16, 0, "interior boundaries are chunk-aligned");
            assert_eq!(range.end % 16, 0);
        }
        assert_eq!(ranges.iter().map(ShardRange::len).sum::<u64>(), 100);
    }

    #[test]
    fn more_shards_than_chunks_yields_empty_tail_shards() {
        let ranges = shard_ranges(8, 8, 4);
        assert_eq!(ranges[0], ShardRange { start: 0, end: 8 });
        assert!(ranges[1..].iter().all(ShardRange::is_empty));
    }

    fn sample_row(device_id: u64) -> DeviceSummary {
        DeviceSummary {
            device_id,
            seed: device_id.wrapping_mul(7),
            routine: "office_day".to_string(),
            backend: "f64".to_string(),
            faulted_epochs: 1,
            epochs: 20,
            correct_epochs: 17,
            early_exit_epochs: 12,
            early_exit_correct: 11,
            escalated_epochs: 8,
            escalated_correct: 6,
            accuracy: 0.85,
            average_current_ua: 55.5 + device_id as f64,
            total_charge_uc: 1234.5,
            duration_s: 20.0,
            residency_s: vec![1.0, 2.0, 17.0],
            tx_epochs: vec![3, 15, 2],
            tx_bytes: vec![9276, 2220, 3104],
            tx_charge_uc: vec![37119.0, 8895.0, 12431.0],
            start_epoch: device_id % 4,
            departed: device_id % 2 == 1,
        }
    }

    #[test]
    fn spool_round_trips_rows_bit_exactly() {
        let mut bytes = Vec::new();
        let rows: Vec<DeviceSummary> = (0..5).map(sample_row).collect();
        let mut writer = SpoolWriter::new(&mut bytes).unwrap();
        for row in &rows {
            writer.push(row).unwrap();
        }
        assert_eq!(writer.rows(), 5);
        writer.finish().unwrap();

        let read: Vec<DeviceSummary> =
            SpoolReader::new(&bytes[..]).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(read, rows);
    }

    #[test]
    fn torn_and_corrupt_spools_are_rejected() {
        let mut bytes = Vec::new();
        let mut writer = SpoolWriter::new(&mut bytes).unwrap();
        writer.push(&sample_row(0)).unwrap();
        writer.finish().unwrap();

        // Every strict prefix is torn.
        for cut in 0..bytes.len() {
            let outcome: Result<Vec<_>, _> = match SpoolReader::new(&bytes[..cut]) {
                Ok(reader) => reader.collect(),
                Err(e) => Err(e),
            };
            assert!(outcome.is_err(), "a spool truncated at byte {cut} must not read back");
        }

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(SpoolReader::new(&bad_magic[..]).is_err());

        let mut bad_kind = bytes.clone();
        bad_kind[12] = 0x7f;
        let outcome: Result<Vec<_>, _> = SpoolReader::new(&bad_kind[..]).unwrap().collect();
        assert!(outcome.is_err());
    }

    #[test]
    fn spool_with_nonzero_header_flags_is_rejected() {
        let mut bytes = Vec::new();
        SpoolWriter::new(&mut bytes).unwrap().finish().unwrap();
        assert!(SpoolReader::new(&bytes[..]).is_ok());
        bytes[6] = 1;
        assert!(SpoolReader::new(&bytes[..]).is_err(), "non-zero flags must be rejected");
    }

    #[test]
    fn sketch_bucket_counts_that_overflow_are_rejected() {
        // Two buckets whose counts wrap a u64 to exactly the header's count.
        let mut bytes = Vec::new();
        for word in [1, 0, 2, 10, u64::MAX, 11, 2] {
            bytes.extend_from_slice(&u64::to_le_bytes(word));
        }
        let mut cursor = ByteCursor::new(&bytes);
        assert!(QuantileSketch::decode_from(&mut cursor).is_err());
    }

    #[test]
    fn fleet_stats_merge_equals_monolithic_observation() {
        let rows: Vec<DeviceSummary> = (0..12).map(sample_row).collect();
        let mut monolithic = FleetStats::new();
        for row in &rows {
            monolithic.observe(row);
        }
        let mut merged = FleetStats::new();
        for chunk in rows.chunks(5) {
            let mut shard = FleetStats::new();
            for row in chunk {
                shard.observe(row);
            }
            merged.merge(&shard);
        }
        // An empty shard is the identity.
        merged.merge(&FleetStats::new());
        assert_eq!(monolithic, merged);

        let mut a = Vec::new();
        let mut b = Vec::new();
        monolithic.encode_into(&mut a);
        merged.encode_into(&mut b);
        assert_eq!(a, b, "encodings must be byte-identical");

        let mut cursor = ByteCursor::new(&a);
        let decoded = FleetStats::decode_from(&mut cursor).unwrap();
        cursor.finish().unwrap();
        assert_eq!(decoded, monolithic);
    }
}

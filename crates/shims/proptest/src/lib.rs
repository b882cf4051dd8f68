//! Offline stand-in for `proptest`.
//!
//! The build container has no crates.io access, so this crate implements
//! the subset of the proptest API the workspace's property tests use:
//!
//! * [`Strategy`] with `prop_map`, implemented for numeric ranges,
//!   tuples, and [`Just`];
//! * [`collection::vec`] with exact or ranged lengths;
//! * [`any`] for types implementing [`Arbitrary`];
//! * the [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`], and
//!   [`prop_oneof!`] macros;
//! * [`ProptestConfig`] with `with_cases`.
//!
//! Like real proptest, failures **shrink**: every strategy produces a
//! lazy rose tree ([`Tree`]) whose children are smaller variants of the
//! generated value — integers halve toward their lower bound, vectors
//! truncate, drop elements, and shrink element-wise, tuples and mapped
//! strategies shrink through their components. On a failing case the
//! runner greedily descends to a locally minimal failing input (with a
//! bounded step budget), prints it, and re-runs it so the test fails
//! with the minimal case's panic. Generation is deterministic per test
//! name, so failures reproduce; `PROPTEST_CASES` raises the case count.

#![forbid(unsafe_code)]

use std::ops::Range;
use std::rc::Rc;

/// A deterministic SplitMix64 generator driving all value generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a) so each test gets a
    /// stable, independent stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A lazily expanded shrink tree: a generated value plus a thunk
/// producing *smaller* variants of it, themselves shrinkable.
pub struct Tree<V> {
    value: V,
    children: Rc<dyn Fn() -> Vec<Tree<V>>>,
}

impl<V: Clone> Clone for Tree<V> {
    fn clone(&self) -> Self {
        Tree {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<V> Tree<V> {
    /// A tree with explicit lazy children.
    pub fn new(value: V, children: Rc<dyn Fn() -> Vec<Tree<V>>>) -> Tree<V> {
        Tree { value, children }
    }

    /// A tree with no shrink candidates.
    pub fn leaf(value: V) -> Tree<V>
    where
        V: 'static,
    {
        Tree {
            value,
            children: Rc::new(Vec::new),
        }
    }

    /// The generated value.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// Consumes the tree, returning the value.
    pub fn into_value(self) -> V {
        self.value
    }

    /// Expands one level of shrink candidates.
    pub fn children(&self) -> Vec<Tree<V>> {
        (self.children)()
    }
}

/// Maps a tree's values (and all shrink candidates) through `f`.
fn map_tree<V: 'static, U: 'static>(t: Tree<V>, f: Rc<dyn Fn(&V) -> U>) -> Tree<U> {
    let value = f(&t.value);
    Tree {
        value,
        children: Rc::new(move || {
            (t.children)()
                .into_iter()
                .map(|c| map_tree(c, Rc::clone(&f)))
                .collect()
        }),
    }
}

/// Combines two trees: the pair shrinks by shrinking either side.
fn pair_tree<A: Clone + 'static, B: Clone + 'static>(a: Tree<A>, b: Tree<B>) -> Tree<(A, B)> {
    let value = (a.value.clone(), b.value.clone());
    Tree {
        value,
        children: Rc::new(move || {
            let mut out: Vec<Tree<(A, B)>> = Vec::new();
            for ca in a.children() {
                out.push(pair_tree(ca, b.clone()));
            }
            for cb in b.children() {
                out.push(pair_tree(a.clone(), cb));
            }
            out
        }),
    }
}

/// Something that can generate shrinkable values from randomness.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generates one value together with its shrink tree.
    fn tree(&self, rng: &mut TestRng) -> Tree<Self::Value>;

    /// Generates one value (discarding the shrink tree).
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        self.tree(rng).into_value()
    }

    /// Maps generated values through `f`; shrinking maps candidates of
    /// the underlying strategy through `f` too.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F: ?Sized> {
    inner: S,
    f: Rc<F>,
}

impl<S, U: 'static, F> Strategy for Map<S, F>
where
    S: Strategy,
    S::Value: Clone + 'static,
    F: Fn(S::Value) -> U + 'static,
{
    type Value = U;
    fn tree(&self, rng: &mut TestRng) -> Tree<U> {
        let f = Rc::clone(&self.f);
        map_tree(
            self.inner.tree(rng),
            Rc::new(move |v: &S::Value| f(v.clone())),
        )
    }
}

/// A strategy producing one fixed value (which never shrinks).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + 'static> Strategy for Just<T> {
    type Value = T;
    fn tree(&self, _rng: &mut TestRng) -> Tree<T> {
        Tree::leaf(self.0.clone())
    }
}

/// The shrink tree of an unsigned integer: halve toward `lo`, with a
/// decrement step so the greedy walk converges on the exact boundary.
fn uint_tree<T: Copy + 'static>(lo: T, v: T, to: fn(T) -> u64, from: fn(u64) -> T) -> Tree<T> {
    Tree::new(
        v,
        Rc::new(move || {
            let (lo64, v64) = (to(lo), to(v));
            let mut cands: Vec<u64> = Vec::new();
            if v64 > lo64 {
                // Geometric ladder from lo up to v-1: the greedy walk
                // binary-searches to the exact failing boundary.
                cands.push(lo64);
                let mut delta = (v64 - lo64) / 2;
                while delta > 0 {
                    let c = v64 - delta;
                    if c != lo64 {
                        cands.push(c);
                    }
                    delta /= 2;
                }
            }
            cands
                .into_iter()
                .map(|c| uint_tree(lo, from(c), to, from))
                .collect()
        }),
    )
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn tree(&self, rng: &mut TestRng) -> Tree<$t> {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u64).wrapping_sub(self.start as u64);
                    let v = self.start + rng.below(width) as $t;
                    uint_tree(self.start, v, |x| x as u64, |x| x as $t)
                }
            }
        )+
    };
}
int_range_strategy!(u8, u16, u32, u64, usize);

fn i64_tree(lo: i64, v: i64) -> Tree<i64> {
    Tree::new(
        v,
        Rc::new(move || {
            let mut cands: Vec<i64> = Vec::new();
            if v > lo {
                cands.push(lo);
                let mut delta = (i128::from(v) - i128::from(lo)) / 2;
                while delta > 0 {
                    let c = (i128::from(v) - delta) as i64;
                    if c != lo {
                        cands.push(c);
                    }
                    delta /= 2;
                }
            }
            cands.into_iter().map(|c| i64_tree(lo, c)).collect()
        }),
    )
}

impl Strategy for Range<i64> {
    type Value = i64;
    fn tree(&self, rng: &mut TestRng) -> Tree<i64> {
        assert!(self.start < self.end, "empty range strategy");
        let width = self.end.wrapping_sub(self.start) as u64;
        let v = self.start.wrapping_add(rng.below(width) as i64);
        i64_tree(self.start, v)
    }
}

fn f64_tree(lo: f64, v: f64) -> Tree<f64> {
    Tree::new(
        v,
        Rc::new(move || {
            let mut cands: Vec<f64> = Vec::new();
            if v > lo {
                cands.push(lo);
                // Stop the ladder once the step is noise; the shrink
                // budget should go to structure, not the 50th decimal.
                let eps = 1e-9 * (1.0 + lo.abs().max(v.abs()));
                let mut delta = (v - lo) / 2.0;
                while delta > eps {
                    let c = v - delta;
                    if c > lo && c < v {
                        cands.push(c);
                    }
                    delta /= 2.0;
                }
            }
            cands.into_iter().map(|c| f64_tree(lo, c)).collect()
        }),
    )
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn tree(&self, rng: &mut TestRng) -> Tree<f64> {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + (self.end - self.start) * rng.next_f64();
        f64_tree(self.start, v)
    }
}

impl<A: Strategy> Strategy for (A,)
where
    A::Value: Clone + 'static,
{
    type Value = (A::Value,);
    fn tree(&self, rng: &mut TestRng) -> Tree<(A::Value,)> {
        map_tree(self.0.tree(rng), Rc::new(|v: &A::Value| (v.clone(),)))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B)
where
    A::Value: Clone + 'static,
    B::Value: Clone + 'static,
{
    type Value = (A::Value, B::Value);
    fn tree(&self, rng: &mut TestRng) -> Tree<(A::Value, B::Value)> {
        let a = self.0.tree(rng);
        let b = self.1.tree(rng);
        pair_tree(a, b)
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C)
where
    A::Value: Clone + 'static,
    B::Value: Clone + 'static,
    C::Value: Clone + 'static,
{
    type Value = (A::Value, B::Value, C::Value);
    fn tree(&self, rng: &mut TestRng) -> Tree<(A::Value, B::Value, C::Value)> {
        let a = self.0.tree(rng);
        let b = self.1.tree(rng);
        let c = self.2.tree(rng);
        map_tree(
            pair_tree(pair_tree(a, b), c),
            Rc::new(|((a, b), c): &((A::Value, B::Value), C::Value)| {
                (a.clone(), b.clone(), c.clone())
            }),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D)
where
    A::Value: Clone + 'static,
    B::Value: Clone + 'static,
    C::Value: Clone + 'static,
    D::Value: Clone + 'static,
{
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn tree(&self, rng: &mut TestRng) -> Tree<(A::Value, B::Value, C::Value, D::Value)> {
        let a = self.0.tree(rng);
        let b = self.1.tree(rng);
        let c = self.2.tree(rng);
        let d = self.3.tree(rng);
        map_tree(
            pair_tree(pair_tree(a, b), pair_tree(c, d)),
            #[allow(clippy::type_complexity)]
            Rc::new(
                |((a, b), (c, d)): &((A::Value, B::Value), (C::Value, D::Value))| {
                    (a.clone(), b.clone(), c.clone(), d.clone())
                },
            ),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E)
where
    A::Value: Clone + 'static,
    B::Value: Clone + 'static,
    C::Value: Clone + 'static,
    D::Value: Clone + 'static,
    E::Value: Clone + 'static,
{
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn tree(&self, rng: &mut TestRng) -> Tree<(A::Value, B::Value, C::Value, D::Value, E::Value)> {
        let a = self.0.tree(rng);
        let b = self.1.tree(rng);
        let c = self.2.tree(rng);
        let d = self.3.tree(rng);
        let e = self.4.tree(rng);
        map_tree(
            pair_tree(pair_tree(pair_tree(a, b), pair_tree(c, d)), e),
            #[allow(clippy::type_complexity)]
            Rc::new(
                |(((a, b), (c, d)), e): &(
                    ((A::Value, B::Value), (C::Value, D::Value)),
                    E::Value,
                )| { (a.clone(), b.clone(), c.clone(), d.clone(), e.clone()) },
            ),
        )
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// The canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// A strategy over every value of an [`Arbitrary`] type.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Strategy for [`any::<bool>()`]. `true` shrinks to `false`.
#[derive(Debug, Clone)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn tree(&self, rng: &mut TestRng) -> Tree<bool> {
        let v = rng.next_u64() & 1 == 1;
        Tree::new(
            v,
            Rc::new(move || {
                if v {
                    vec![Tree::leaf(false)]
                } else {
                    Vec::new()
                }
            }),
        )
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! arbitrary_full_range_int {
    ($($t:ty => $any:ident),+ $(,)?) => {
        $(
            /// Strategy over the full value range of the type; shrinks
            /// toward zero.
            #[derive(Debug, Clone)]
            pub struct $any;
            impl Strategy for $any {
                type Value = $t;
                fn tree(&self, rng: &mut TestRng) -> Tree<$t> {
                    let v = rng.next_u64() as $t;
                    uint_tree(0, v, |x| x as u64, |x| x as $t)
                }
            }
            impl Arbitrary for $t {
                type Strategy = $any;
                fn arbitrary() -> $any { $any }
            }
        )+
    };
}
arbitrary_full_range_int!(u8 => AnyU8, u16 => AnyU16, u32 => AnyU32, u64 => AnyU64, usize => AnyUsize);

/// A boxed tree generator, one arm of a [`Union`].
type Generator<V> = Rc<dyn Fn(&mut TestRng) -> Tree<V>>;

/// A uniform choice among boxed strategies of one value type — the
/// engine behind [`prop_oneof!`]. A value shrinks within the arm that
/// generated it.
pub struct Union<V> {
    choices: Vec<Generator<V>>,
}

impl<V> Union<V> {
    /// An empty union; populate it with [`Union::with`].
    pub fn empty() -> Self {
        Union {
            choices: Vec::new(),
        }
    }

    /// Adds one equally weighted arm.
    pub fn with<S>(mut self, strategy: S) -> Self
    where
        S: Strategy<Value = V> + 'static,
    {
        self.choices.push(Rc::new(move |rng| strategy.tree(rng)));
        self
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn tree(&self, rng: &mut TestRng) -> Tree<V> {
        assert!(
            !self.choices.is_empty(),
            "prop_oneof! needs at least one arm"
        );
        let i = rng.below(self.choices.len() as u64) as usize;
        (self.choices[i])(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng, Tree};
    use std::ops::Range;
    use std::rc::Rc;

    /// A length specification: exact or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of `element` values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// The shrink tree of a vector of element trees: truncate toward
    /// the minimum length, drop single elements, and shrink elements in
    /// place.
    fn vec_tree<V: Clone + 'static>(elems: Vec<Tree<V>>, lo: usize) -> Tree<Vec<V>> {
        let value: Vec<V> = elems.iter().map(|t| t.value().clone()).collect();
        Tree::new(
            value,
            Rc::new(move || {
                let mut out: Vec<Tree<Vec<V>>> = Vec::new();
                if elems.len() > lo {
                    // Halve the length toward the minimum first — the
                    // biggest structural step, tried before anything
                    // fine-grained.
                    let keep = lo + (elems.len() - lo) / 2;
                    if keep < elems.len() {
                        out.push(vec_tree(elems[..keep].to_vec(), lo));
                    }
                    // Drop each single element.
                    for i in 0..elems.len() {
                        let mut rest = elems.clone();
                        rest.remove(i);
                        out.push(vec_tree(rest, lo));
                    }
                }
                // Shrink each element in place.
                for i in 0..elems.len() {
                    for child in elems[i].children() {
                        let mut next = elems.clone();
                        next[i] = child;
                        out.push(vec_tree(next, lo));
                    }
                }
                out
            }),
        )
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone + 'static,
    {
        type Value = Vec<S::Value>;
        fn tree(&self, rng: &mut TestRng) -> Tree<Vec<S::Value>> {
            let len = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            let elems: Vec<Tree<S::Value>> = (0..len).map(|_| self.element.tree(rng)).collect();
            vec_tree(elems, self.size.lo)
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// A uniform choice among strategies with one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::empty()$(.with($strategy))+
    };
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, …)`
/// item becomes a normal unit test running `cases` random cases; a
/// failing case shrinks to a locally minimal failing input before the
/// test fails with it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        #[test]
        fn $name:ident ( $( $arg:ident in $strategy:expr ),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                let strategy = ( $( $strategy, )+ );
                let run = {
                    // Pins the closure's parameter to the strategy's
                    // value type so inference sees it before call sites.
                    fn typed<S: $crate::Strategy, F: Fn(S::Value) -> bool>(_: &S, f: F) -> F {
                        f
                    }
                    typed(&strategy, |case| {
                        let ( $( $arg, )+ ) = case;
                        ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || { $body }))
                            .is_ok()
                    })
                };
                for case in 0..config.cases {
                    let tree = $crate::Strategy::tree(&strategy, &mut rng);
                    if run(::std::clone::Clone::clone(tree.value())) {
                        continue;
                    }
                    eprintln!(
                        "proptest case {case}/{} of {} failed; shrinking...",
                        config.cases,
                        stringify!($name),
                    );
                    // Shrink quietly: every candidate run re-panics, and
                    // the default hook would spray a report per attempt.
                    let prev_hook = ::std::panic::take_hook();
                    ::std::panic::set_hook(::std::boxed::Box::new(|_| {}));
                    let mut minimal = tree;
                    let mut budget = 1000usize;
                    loop {
                        let mut advanced = false;
                        for child in minimal.children() {
                            if budget == 0 {
                                break;
                            }
                            budget -= 1;
                            if !run(::std::clone::Clone::clone(child.value())) {
                                minimal = child;
                                advanced = true;
                                break;
                            }
                        }
                        if !advanced || budget == 0 {
                            break;
                        }
                    }
                    ::std::panic::set_hook(prev_hook);
                    eprintln!(
                        "minimal failing input of {}: {:?}",
                        stringify!($name),
                        minimal.value(),
                    );
                    // Re-run the minimal case so the test fails with its
                    // actual panic message and backtrace.
                    let ( $( $arg, )+ ) = minimal.into_value();
                    $body
                    ::std::panic!("proptest: the shrunk case stopped failing (flaky property?)");
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{Tree, Union};

    /// The macro's greedy descent, extracted for direct shrink tests.
    fn shrink_to_minimal<V: Clone>(tree: Tree<V>, fails: impl Fn(&V) -> bool) -> Tree<V> {
        assert!(fails(tree.value()), "shrink needs a failing root");
        let mut minimal = tree;
        let mut budget = 1000usize;
        loop {
            let mut advanced = false;
            for child in minimal.children() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                if fails(child.value()) {
                    minimal = child;
                    advanced = true;
                    break;
                }
            }
            if !advanced || budget == 0 {
                break;
            }
        }
        minimal
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = crate::Strategy::generate(&(3u8..7), &mut rng);
            assert!((3..7).contains(&v));
            let f = crate::Strategy::generate(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn int_shrinking_finds_the_exact_boundary() {
        let mut rng = crate::TestRng::from_name("int-shrink");
        let strategy = 0u64..10_000;
        let mut checked = 0;
        while checked < 5 {
            let tree = crate::Strategy::tree(&strategy, &mut rng);
            if *tree.value() < 1234 {
                continue; // need a failing root
            }
            let minimal = shrink_to_minimal(tree, |&v| v >= 1234);
            assert_eq!(*minimal.value(), 1234);
            checked += 1;
        }
    }

    #[test]
    fn vec_shrinking_minimizes_length_and_elements() {
        let mut rng = crate::TestRng::from_name("vec-shrink");
        let strategy = crate::collection::vec(1u64..100, 0..20);
        let mut checked = 0;
        while checked < 5 {
            let tree = crate::Strategy::tree(&strategy, &mut rng);
            if tree.value().len() < 3 {
                continue;
            }
            let minimal = shrink_to_minimal(tree, |v: &Vec<u64>| v.len() >= 3);
            // Length shrinks to the boundary, elements to their minimum.
            assert_eq!(minimal.value(), &vec![1, 1, 1]);
            checked += 1;
        }
    }

    #[test]
    fn vec_shrinking_respects_minimum_length() {
        let mut rng = crate::TestRng::from_name("vec-lo");
        let strategy = crate::collection::vec(0u64..100, 4..10);
        let tree = crate::Strategy::tree(&strategy, &mut rng);
        let minimal = shrink_to_minimal(tree, |_| true); // everything fails
        assert_eq!(minimal.value().len(), 4);
        assert!(minimal.value().iter().all(|&x| x == 0));
    }

    #[test]
    fn tuple_shrinking_shrinks_each_component() {
        let mut rng = crate::TestRng::from_name("tuple-shrink");
        let strategy = (0u64..1000, any::<bool>(), 0u32..50);
        let mut checked = 0;
        while checked < 5 {
            let tree = crate::Strategy::tree(&strategy, &mut rng);
            let &(a, b, _) = tree.value();
            if a < 10 || !b {
                continue;
            }
            // Failure depends on (a, b) only: c must shrink to 0, a to
            // the boundary, and b must stay true.
            let minimal = shrink_to_minimal(tree, |&(a, b, _)| a >= 10 && b);
            assert_eq!(*minimal.value(), (10, true, 0));
            checked += 1;
        }
    }

    #[test]
    fn map_shrinking_shrinks_through_the_mapping() {
        let mut rng = crate::TestRng::from_name("map-shrink");
        let strategy = (0u64..1000).prop_map(|v| v * 2);
        let mut checked = 0;
        while checked < 5 {
            let tree = crate::Strategy::tree(&strategy, &mut rng);
            if *tree.value() < 100 {
                continue;
            }
            let minimal = shrink_to_minimal(tree, |&v| v >= 100);
            assert_eq!(*minimal.value(), 100);
            checked += 1;
        }
    }

    #[test]
    fn union_values_shrink_within_their_arm() {
        let mut rng = crate::TestRng::from_name("union-shrink");
        let strategy: Union<u64> = prop_oneof![10u64..100, 500u64..1000];
        for _ in 0..20 {
            let tree = crate::Strategy::tree(&strategy, &mut rng);
            let minimal = shrink_to_minimal(tree, |_| true);
            let v = *minimal.value();
            assert!(v == 10 || v == 500, "shrinks to its arm's floor, got {v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_generates_and_runs(
            v in crate::collection::vec(0u64..100, 0..10),
            flag in any::<bool>(),
            choice in prop_oneof![Just(1u32), Just(2u32)],
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!(v.iter().all(|&x| x < 100));
            let _ = flag;
            prop_assert!(choice == 1 || choice == 2);
        }

        #[test]
        fn prop_map_works(m in (0u8..3, 10u64..20).prop_map(|(a, b)| u64::from(a) + b) ) {
            prop_assert!((10..23).contains(&m));
        }
    }
}

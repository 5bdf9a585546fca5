//! The bit-parallel dense engine.
//!
//! Where [`Simulator`](crate::Simulator) walks a sparse frontier state by
//! state, this engine keeps the whole state set as a bit vector of
//! `ceil(n/64)` machine words and evaluates every state each cycle with a
//! handful of word-wide operations — the software analogue of the Sunder
//! subarray, which reads one full match-vector row per symbol and ANDs it
//! with the active-successor vector (paper, Figure 1):
//!
//! * **Accept masks** — one bit vector per stride position and *symbol
//!   class*: symbols the automaton cannot distinguish (see
//!   [`ByteClasses`]) share a row, shrinking the table from
//!   `stride × alphabet` rows to the distinct-class count (a dictionary
//!   workload collapses 256 byte columns to a few dozen). A per-position
//!   symbol→class map adds one extra load on the lookup path.
//! * **Successor rows** — for each state, the bit vector of its successors
//!   (the interconnect). The candidate set is the OR of the rows of the
//!   active states, plus the start vectors on enabled cycles.
//! * **One cycle** is then `active' = (succ(active) | starts) &
//!   accept[class(v₀)] & … & accept[class(vₖ₋₁)]`, and reports are
//!   extracted from `active' & report_mask` with `trailing_zeros` scans.
//!   The word loops run through [`crate::simd`]'s chunked helpers.
//!
//! Cost per cycle is `O(active·w + stride·w)` words (`w = ceil(n/64)`),
//! independent of fan-out, candidate count, and charset shape — dense wins
//! exactly when the frontier is a sizable fraction of the automaton, which
//! is what the high-activity benchmarks (Snort's hot classes, the
//! Hamming/Levenshtein meshes) look like.
//!
//! All precomputed tables live in an `Arc`-shared [`DenseTables`], so the
//! sharded scheduler compiles them once per pipeline rather than once per
//! job.

use std::sync::Arc;

use sunder_automata::input::InputView;
use sunder_automata::{AutomataError, ByteClasses, Nfa, StartKind, StateId};

use crate::exec::Engine;
use crate::simd;
use crate::sink::{ReportEvent, ReportSink};
use crate::storage::TableBuf;

/// Precomputed, automaton-derived tables for the dense engine: byte-classed
/// accept masks, the successor matrix, start/report vectors. Shareable
/// across engine instances of the same automaton.
///
/// Like [`crate::fastpath::SparseTables`], every flat table is a
/// [`TableBuf`] and every field is public so the `sunder-artifact`
/// loader can assemble the struct from slices borrowed out of a mapped
/// `.sdb` database.
#[derive(Debug)]
pub struct DenseTables {
    /// Words per state bit vector: `ceil(num_states / 64)`.
    pub words: usize,
    /// Alphabet size (`1 << symbol_bits`).
    pub alphabet: usize,
    /// Automaton stride (symbols per cycle).
    pub stride: usize,
    /// Per position, the symbol→class map (`stride × alphabet`, row-major).
    pub class_of: TableBuf<u16>,
    /// Accept-row offset of each position's class 0, in row units
    /// (`stride + 1` entries; the last is the total row count).
    pub class_off: Vec<u32>,
    /// Accept masks, one `words`-wide row per (position, class).
    pub accept: TableBuf<u64>,
    /// Per position `j`: the states whose charset at `j` is full (don't
    /// care). Used in place of an accept row for end-of-stream padding.
    pub pad_full: TableBuf<u64>,
    /// Successor rows, one `words`-wide row per state.
    pub succ: TableBuf<u64>,
    /// States with at least one successor (skip mask for the OR loop).
    pub has_succ: TableBuf<u64>,
    /// Bit vector of the all-input start states.
    pub start_allinput: TableBuf<u64>,
    /// Bit vector of the start-of-data start states.
    pub start_sod: TableBuf<u64>,
    /// Bit vector of the reporting states.
    pub report_mask: TableBuf<u64>,
    /// Cached `nfa.start_period()`, hoisted out of the cycle loop.
    pub start_period: u64,
}

impl DenseTables {
    /// Builds the tables for `nfa`, computing the symbol equivalence
    /// classes first so the accept table holds one row per class.
    pub fn build(nfa: &Nfa) -> DenseTables {
        let n = nfa.num_states();
        let words = n.div_ceil(64);
        let alphabet = 1usize << nfa.symbol_bits();
        let stride = nfa.stride();
        let classes = ByteClasses::of(nfa);

        let mut class_off = Vec::with_capacity(stride + 1);
        class_off.push(0u32);
        for j in 0..stride {
            class_off.push(class_off[j] + classes.count(j) as u32);
        }
        let total_rows = class_off[stride] as usize;

        let mut class_of = Vec::with_capacity(stride * alphabet);
        for j in 0..stride {
            class_of.extend_from_slice(classes.row(j));
        }

        let mut accept = vec![0u64; total_rows * words];
        let mut pad_full = vec![0u64; stride * words];
        let mut succ = vec![0u64; n * words];
        let mut has_succ = vec![0u64; words];
        let mut start_allinput = vec![0u64; words];
        let mut start_sod = vec![0u64; words];
        let mut report_mask = vec![0u64; words];

        for (id, ste) in nfa.states() {
            let i = id.index();
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for (j, cs) in ste.charsets().iter().enumerate() {
                // One column bit per member symbol; symbols of the same
                // class write the same row, by definition of the classes.
                cs.for_each_symbol(|sym| {
                    let row = class_off[j] as usize + usize::from(classes.class_of(j, sym));
                    accept[row * words + word] |= bit;
                });
                if cs.is_full() {
                    pad_full[j * words + word] |= bit;
                }
            }
            match ste.start_kind() {
                StartKind::AllInput => start_allinput[word] |= bit,
                StartKind::StartOfData => start_sod[word] |= bit,
                StartKind::None => {}
            }
            if ste.is_reporting() {
                report_mask[word] |= bit;
            }
            if !nfa.successors(id).is_empty() {
                has_succ[word] |= bit;
                let row = &mut succ[i * words..(i + 1) * words];
                for t in nfa.successors(id) {
                    row[t.index() / 64] |= 1u64 << (t.index() % 64);
                }
            }
        }

        DenseTables {
            words,
            alphabet,
            stride,
            class_of: class_of.into(),
            class_off,
            accept: accept.into(),
            pad_full: pad_full.into(),
            succ: succ.into(),
            has_succ: has_succ.into(),
            start_allinput: start_allinput.into(),
            start_sod: start_sod.into(),
            report_mask: report_mask.into(),
            start_period: u64::from(nfa.start_period()),
        }
    }

    /// Actual footprint of the variable-size tables in bytes (accept +
    /// successor matrices — the byte-classed analogue of
    /// [`DenseEngine::table_bytes`]).
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        (self.accept.len() + self.succ.len()) * 8
    }

    /// Accept rows at position `pos` (= distinct symbol classes there).
    pub fn class_count(&self, pos: usize) -> usize {
        (self.class_off[pos + 1] - self.class_off[pos]) as usize
    }
}

/// Bit-parallel cycle-by-cycle executor for one automaton.
///
/// Produces byte-identical report traces to [`crate::Simulator`]: same
/// cycles, same states, same in-cycle (state-ascending) order.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
/// use sunder_automata::InputView;
/// use sunder_sim::{DenseEngine, TraceSink};
///
/// let nfa = compile_regex("ab", 9)?;
/// let input = InputView::new(b"xxabx", 8, 1)?;
/// let mut engine = DenseEngine::new(&nfa);
/// let mut trace = TraceSink::new();
/// engine.run(&input, &mut trace);
/// assert_eq!(trace.cycle_id_pairs(), vec![(3, 9)]);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug)]
pub struct DenseEngine<'a> {
    nfa: &'a Nfa,
    /// Precomputed tables, shareable across engines of this automaton.
    tables: Arc<DenseTables>,
    active: Vec<u64>,
    /// Scratch: candidate vector for the current cycle.
    next: Vec<u64>,
    active_count: usize,
    cycle: u64,
    /// Scratch: reports for the current cycle.
    reports: Vec<ReportEvent>,
    /// Scratch: materialized frontier for sinks that want it.
    active_list: Vec<StateId>,
}

impl<'a> DenseEngine<'a> {
    /// Precomputes the accept masks and successor matrix for the automaton.
    pub fn new(nfa: &'a Nfa) -> Self {
        Self::with_tables(nfa, Arc::new(DenseTables::build(nfa)))
    }

    /// Wraps precompiled tables, skipping the per-automaton build. The
    /// tables must have been built from `nfa`.
    pub(crate) fn with_tables(nfa: &'a Nfa, tables: Arc<DenseTables>) -> Self {
        debug_assert_eq!(tables.stride, nfa.stride());
        let words = tables.words;
        DenseEngine {
            nfa,
            tables,
            active: vec![0u64; words],
            next: vec![0u64; words],
            active_count: 0,
            cycle: 0,
            reports: Vec::new(),
            active_list: Vec::new(),
        }
    }

    /// The compiled tables, for inspection by the engine tests.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> &Arc<DenseTables> {
        &self.tables
    }

    /// Conservative table footprint upper bound in bytes, assuming one
    /// accept row per symbol (`stride × 2^bits × ceil(n/64)` words). Cheap
    /// — no automaton scan — so budget checks run it first; the actual
    /// byte-classed footprint ([`DenseEngine::classed_table_bytes`]) is
    /// usually far smaller.
    pub fn table_bytes(nfa: &Nfa) -> usize {
        let words = nfa.num_states().div_ceil(64);
        let alphabet = 1usize << nfa.symbol_bits();
        let accept = nfa.stride() * alphabet * words;
        let succ = nfa.num_states() * words;
        (accept + succ) * 8
    }

    /// Exact table footprint in bytes after byte-class reduction: one
    /// accept row per distinct symbol class instead of one per symbol.
    /// Costs a `ByteClasses` computation (`O(states × alphabet)`).
    pub fn classed_table_bytes(nfa: &Nfa) -> usize {
        let classes = ByteClasses::of(nfa);
        let words = nfa.num_states().div_ceil(64);
        (classes.total() * words + nfa.num_states() * words) * 8
    }

    /// The automaton being executed.
    pub fn nfa(&self) -> &Nfa {
        self.nfa
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of states active after the last step.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Accept rows stored for stride position `pos` — the number of
    /// distinct symbol classes there (≤ the alphabet size).
    pub fn class_count(&self, pos: usize) -> usize {
        self.tables.class_count(pos)
    }

    /// Resets to the initial configuration (cycle 0, empty frontier).
    pub fn reset(&mut self) {
        simd::clear(&mut self.active);
        self.active_count = 0;
        self.cycle = 0;
    }

    /// Replaces the current frontier and cycle counter.
    fn load_frontier(&mut self, states: &[StateId], cycle: u64) {
        simd::clear(&mut self.active);
        for s in states {
            self.active[s.index() / 64] |= 1u64 << (s.index() % 64);
        }
        self.active_count = simd::count_ones(&self.active);
        self.cycle = cycle;
    }

    /// Captures the current execution state (canonical ascending-state
    /// frontier plus cycle clock) into `out`; see
    /// [`crate::exec::Engine::suspend`].
    pub fn suspend(&self, out: &mut crate::exec::EngineState) {
        out.frontier.clear();
        self.export_frontier(&mut out.frontier);
        out.cycle = self.cycle;
    }

    /// Restores a suspended execution state; see
    /// [`crate::exec::Engine::resume`].
    pub fn resume(&mut self, state: &crate::exec::EngineState) {
        self.load_frontier(&state.frontier, state.cycle);
    }

    /// Appends the current frontier, in ascending state order, to `out`.
    fn export_frontier(&self, out: &mut Vec<StateId>) {
        for (wi, &word) in self.active.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(StateId((wi * 64) as u32 + w.trailing_zeros()));
                w &= w - 1;
            }
        }
    }

    /// Executes one cycle on a symbol vector whose first `valid` entries
    /// carry real input, delivering any reports to `sink`.
    ///
    /// Returns the number of active states after the cycle.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// the automaton's stride.
    pub fn step<S: ReportSink + ?Sized>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        self.step_impl::<S, false>(vector, valid, sink)
    }

    /// [`DenseEngine::step`] minus the per-cycle activity callbacks. Legal
    /// only for sinks whose `wants_cycle_activity` and
    /// `wants_active_states` both return `false` (see
    /// [`crate::sink::ReportSink::wants_cycle_activity`]); reports are
    /// still delivered identically.
    pub(crate) fn step_quiet<S: ReportSink + ?Sized>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        self.step_impl::<S, true>(vector, valid, sink)
    }

    fn step_impl<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        // Monomorphized fast paths for small state vectors (the regime
        // where dense beats sparse): with the word count a compile-time
        // constant the OR/AND loops fully unroll and bounds checks vanish.
        match self.tables.words {
            1 => self.step_w::<1, S, QUIET>(vector, valid, sink),
            2 => self.step_w::<2, S, QUIET>(vector, valid, sink),
            3 => self.step_w::<3, S, QUIET>(vector, valid, sink),
            4 => self.step_w::<4, S, QUIET>(vector, valid, sink),
            5 => self.step_w::<5, S, QUIET>(vector, valid, sink),
            6 => self.step_w::<6, S, QUIET>(vector, valid, sink),
            7 => self.step_w::<7, S, QUIET>(vector, valid, sink),
            8 => self.step_w::<8, S, QUIET>(vector, valid, sink),
            _ => self.step_dyn::<S, QUIET>(vector, valid, sink),
        }
    }

    /// [`DenseEngine::step`] specialized for a compile-time word count.
    fn step_w<const W: usize, S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        let t = &*self.tables;
        let stride = t.stride;
        assert_eq!(
            vector.len(),
            stride,
            "symbol vector length must equal the automaton stride"
        );
        debug_assert_eq!(t.words, W);

        let mut next = [0u64; W];

        // Candidate phase: successors of the frontier, plus enabled starts.
        {
            let active: &[u64; W] = (&self.active[..]).try_into().expect("word count");
            let has_succ: &[u64; W] = (&t.has_succ[..]).try_into().expect("word count");
            for wi in 0..W {
                let mut w = active[wi] & has_succ[wi];
                while w != 0 {
                    let s = wi * 64 + w.trailing_zeros() as usize;
                    let row: &[u64; W] = (&t.succ[s * W..(s + 1) * W]).try_into().expect("row");
                    for k in 0..W {
                        next[k] |= row[k];
                    }
                    w &= w - 1;
                }
            }
        }
        if t.start_period == 1 || self.cycle.is_multiple_of(t.start_period) {
            let starts: &[u64; W] = (&t.start_allinput[..]).try_into().expect("word count");
            for k in 0..W {
                next[k] |= starts[k];
            }
        }
        if self.cycle == 0 {
            let starts: &[u64; W] = (&t.start_sod[..]).try_into().expect("word count");
            for k in 0..W {
                next[k] |= starts[k];
            }
        }

        // Match phase: AND one accept row per valid stride position (by
        // symbol class), then the don't-care mask over the padding tail.
        let mut dead = false;
        for (j, &v) in vector.iter().enumerate().take(valid.min(stride)) {
            let sym = v as usize;
            if sym >= t.alphabet {
                dead = true;
                break;
            }
            let cls = usize::from(t.class_of[j * t.alphabet + sym]);
            let base = (t.class_off[j] as usize + cls) * W;
            let row: &[u64; W] = (&t.accept[base..base + W]).try_into().expect("row");
            for k in 0..W {
                next[k] &= row[k];
            }
        }
        for j in valid.min(stride)..stride {
            let row: &[u64; W] = (&t.pad_full[j * W..(j + 1) * W]).try_into().expect("row");
            for k in 0..W {
                next[k] &= row[k];
            }
        }
        if dead {
            next = [0u64; W];
        }

        self.active.copy_from_slice(&next);
        let mut count = 0usize;
        for w in next {
            count += w.count_ones() as usize;
        }
        self.active_count = count;
        self.deliver::<S, QUIET>(valid, count, sink)
    }

    /// [`DenseEngine::step`] for arbitrary word counts, built on the
    /// chunked word helpers in [`crate::simd`].
    fn step_dyn<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        let t = &*self.tables;
        let stride = t.stride;
        assert_eq!(
            vector.len(),
            stride,
            "symbol vector length must equal the automaton stride"
        );
        let words = t.words;

        // Candidate phase: successors of the frontier, plus enabled starts.
        simd::clear(&mut self.next);
        for wi in 0..words {
            let mut w = self.active[wi] & t.has_succ[wi];
            while w != 0 {
                let s = wi * 64 + w.trailing_zeros() as usize;
                simd::or_into(&mut self.next, &t.succ[s * words..(s + 1) * words]);
                w &= w - 1;
            }
        }
        if t.start_period == 1 || self.cycle.is_multiple_of(t.start_period) {
            simd::or_into(&mut self.next, &t.start_allinput);
        }
        if self.cycle == 0 {
            simd::or_into(&mut self.next, &t.start_sod);
        }

        // Match phase: AND one accept row per stride position, selected by
        // symbol class (the padding region uses the don't-care mask
        // instead). A symbol outside the alphabet matches no charset, full
        // or not — same as the sparse engine's `contains` — so it
        // annihilates the cycle. The final AND fuses with the popcount.
        let mut dead = false;
        let mut count = 0usize;
        let live = valid.min(stride);
        let rows = stride; // total AND passes (live + padding)
        let mut pass = 0usize;
        for (j, &v) in vector.iter().enumerate().take(live) {
            let sym = v as usize;
            if sym >= t.alphabet {
                dead = true;
                break;
            }
            let cls = usize::from(t.class_of[j * t.alphabet + sym]);
            let row = &t.accept[(t.class_off[j] as usize + cls) * words..][..words];
            pass += 1;
            if pass == rows {
                count = simd::and_into_count(&mut self.next, row);
            } else {
                simd::and_into(&mut self.next, row);
            }
        }
        if !dead {
            for j in live..stride {
                let row = &t.pad_full[j * words..][..words];
                pass += 1;
                if pass == rows {
                    count = simd::and_into_count(&mut self.next, row);
                } else {
                    simd::and_into(&mut self.next, row);
                }
            }
        }
        if dead {
            simd::clear(&mut self.next);
            count = 0;
        } else if rows == 0 {
            // Stride-0 is impossible, but keep the count honest if no AND
            // pass ran (e.g. all-padding vectors on stride 0).
            count = simd::count_ones(&self.next);
        }

        std::mem::swap(&mut self.active, &mut self.next);
        self.active_count = count;
        self.deliver::<S, QUIET>(valid, count, sink)
    }

    /// Shared per-cycle tail: report extraction and sink callbacks.
    fn deliver<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        valid: usize,
        count: usize,
        sink: &mut S,
    ) -> usize {
        let words = self.tables.words;
        // Report extraction: trailing_zeros scan over the reporting members
        // of the new frontier. Ascending state order by construction.
        self.reports.clear();
        for wi in 0..words {
            let mut w = self.active[wi] & self.tables.report_mask[wi];
            while w != 0 {
                let i = wi * 64 + w.trailing_zeros() as usize;
                let id = StateId(i as u32);
                for r in self.nfa.state(id).reports() {
                    // Reports landing in the end-of-stream padding region
                    // never fired in the unstrided automaton; drop them.
                    if (r.offset as usize) < valid {
                        self.reports.push(ReportEvent {
                            cycle: self.cycle,
                            state: id,
                            info: *r,
                        });
                    }
                }
                w &= w - 1;
            }
        }

        if !self.reports.is_empty() {
            sink.on_cycle_reports(self.cycle, &self.reports);
        }
        if !QUIET {
            sink.on_cycle_activity(self.cycle, count);
            if sink.wants_active_states() {
                self.active_list.clear();
                for (wi, &word) in self.active.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        self.active_list
                            .push(StateId((wi * 64) as u32 + w.trailing_zeros()));
                        w &= w - 1;
                    }
                }
                sink.on_active_states(self.cycle, &self.active_list);
            }
        }
        self.cycle += 1;
        count
    }

    /// Runs the whole input stream through the automaton, allocation-free
    /// in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's; see
    /// [`DenseEngine::try_run`] for the fallible form.
    pub fn run<S: ReportSink + ?Sized>(&mut self, input: &InputView, sink: &mut S) {
        self.try_run(input, sink)
            .expect("input view stride must match the automaton stride");
    }

    /// Runs the whole input stream, reporting a stride mismatch as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::StrideMismatch`] if the view was built for
    /// a different stride than the automaton's.
    pub fn try_run<S: ReportSink + ?Sized>(
        &mut self,
        input: &InputView,
        sink: &mut S,
    ) -> Result<(), AutomataError> {
        if input.stride() != self.nfa.stride() {
            return Err(AutomataError::StrideMismatch {
                expected: self.nfa.stride(),
                found: input.stride(),
            });
        }
        if sink.wants_cycle_activity() || sink.wants_active_states() {
            for v in input.iter_ref() {
                self.step(v.symbols, v.valid, sink);
            }
        } else {
            // The sink declared no interest in per-cycle activity, so the
            // quiet step legally drops those callbacks.
            for v in input.iter_ref() {
                self.step_quiet(v.symbols, v.valid, sink);
            }
        }
        Ok(())
    }
}

impl Engine for DenseEngine<'_> {
    fn nfa(&self) -> &Nfa {
        DenseEngine::nfa(self)
    }

    fn cycle(&self) -> u64 {
        DenseEngine::cycle(self)
    }

    fn active_count(&self) -> usize {
        DenseEngine::active_count(self)
    }

    fn reset(&mut self) {
        DenseEngine::reset(self);
    }

    fn suspend(&self, out: &mut crate::exec::EngineState) {
        DenseEngine::suspend(self, out);
    }

    fn resume(&mut self, state: &crate::exec::EngineState) {
        DenseEngine::resume(self, state);
    }

    fn step(&mut self, vector: &[u16], valid: usize, sink: &mut dyn ReportSink) -> usize {
        DenseEngine::step(self, vector, valid, sink)
    }

    // Statically dispatched loop: one virtual call per run, not per cycle.
    fn run(&mut self, input: &InputView, sink: &mut dyn ReportSink) {
        DenseEngine::run(self, input, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::Simulator;
    use sunder_automata::regex::{compile_regex, compile_rule_set};
    use sunder_automata::{Ste, SymbolSet};

    fn traces_agree(nfa: &Nfa, input: &InputView) {
        let mut sparse = Simulator::new(nfa);
        let mut ts = TraceSink::new();
        sparse.run(input, &mut ts);
        let mut dense = DenseEngine::new(nfa);
        let mut td = TraceSink::new();
        dense.run(input, &mut td);
        assert_eq!(ts.events, td.events);
    }

    #[test]
    fn agrees_on_literals_and_classes() {
        let nfa = compile_rule_set(&["ca[tp]", "dog", ".*ab"]).unwrap();
        let input = InputView::new(b"cat dog cap abba dog", 8, 1).unwrap();
        traces_agree(&nfa, &input);
    }

    #[test]
    fn agrees_on_anchored_patterns() {
        let nfa = compile_regex("^ab", 0).unwrap();
        traces_agree(&nfa, &InputView::new(b"abab", 8, 1).unwrap());
        traces_agree(&nfa, &InputView::new(b"xab", 8, 1).unwrap());
    }

    #[test]
    fn agrees_on_strided_automata_with_padding() {
        let mut nfa = Nfa::with_stride(4, 2);
        let s = nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::singleton(4, 1), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(7, 0),
        );
        nfa.add_edge(s, s);
        let input = InputView::from_symbols(vec![1, 9, 1], 2);
        traces_agree(&nfa, &input);
    }

    #[test]
    fn agrees_on_start_periods() {
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 1))
                .start(StartKind::AllInput)
                .report(0),
        );
        let input = InputView::from_symbols(vec![1, 1, 1, 1, 1], 1);
        traces_agree(&nfa, &input);
    }

    #[test]
    fn padding_report_suppressed() {
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::full(4), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(0, 1),
        );
        let input = InputView::from_symbols(vec![5], 2);
        let mut dense = DenseEngine::new(&nfa);
        let mut trace = TraceSink::new();
        dense.run(&input, &mut trace);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn reset_and_reuse() {
        let nfa = compile_regex("^a", 0).unwrap();
        let input = InputView::new(b"a", 8, 1).unwrap();
        let mut dense = DenseEngine::new(&nfa);
        let mut t1 = TraceSink::new();
        dense.run(&input, &mut t1);
        assert_eq!(t1.events.len(), 1);
        dense.reset();
        let mut t2 = TraceSink::new();
        dense.run(&input, &mut t2);
        assert_eq!(t2.events.len(), 1, "start-of-data must re-arm after reset");
    }

    #[test]
    fn frontier_round_trip() {
        let nfa = compile_rule_set(&["abc", "abd"]).unwrap();
        let input = InputView::new(b"ab", 8, 1).unwrap();
        let mut dense = DenseEngine::new(&nfa);
        dense.run(&input, &mut crate::NullSink);
        let mut snap = crate::exec::EngineState::initial();
        dense.suspend(&mut snap);
        assert!(!snap.frontier.is_empty());
        let mut other = DenseEngine::new(&nfa);
        other.resume(&snap);
        assert_eq!(other.active_count(), snap.frontier.len());
        let mut again = crate::exec::EngineState::initial();
        other.suspend(&mut again);
        assert_eq!(again, snap);
    }

    #[test]
    fn more_than_64_states() {
        // Spill into multiple words: 70 chained states.
        let mut nfa = Nfa::new(8);
        let mut prev = None;
        for i in 0..70u32 {
            let mut ste = Ste::new(SymbolSet::singleton(8, b'a' as u16));
            if i == 0 {
                ste = ste.start(StartKind::AllInput);
            }
            if i == 69 {
                ste = ste.report(1);
            }
            let id = nfa.add_state(ste);
            if let Some(p) = prev {
                nfa.add_edge(p, id);
            }
            prev = Some(id);
        }
        let input = InputView::new(&[b'a'; 80], 8, 1).unwrap();
        traces_agree(&nfa, &input);
    }

    #[test]
    fn many_words_exercise_the_simd_path() {
        // 600 states = 10 words, past every monomorphized step_w arm, so
        // step_dyn (the chunked-word path) runs — including a remainder
        // chunk (10 % 4 != 0). Two chains so the frontier spans words.
        let mut nfa = Nfa::new(8);
        for start_sym in [b'a', b'q'] {
            let mut prev = None;
            for i in 0..300u32 {
                let sym = if i == 0 { start_sym } else { b'a' };
                let mut ste = Ste::new(SymbolSet::singleton(8, sym as u16));
                if i == 0 {
                    ste = ste.start(StartKind::AllInput);
                }
                if i % 37 == 0 {
                    ste = ste.report(i);
                }
                let id = nfa.add_state(ste);
                if let Some(p) = prev {
                    nfa.add_edge(p, id);
                }
                prev = Some(id);
            }
        }
        assert!(nfa.num_states() > 8 * 64, "must exceed the step_w arms");
        let mut input = vec![b'a'; 120];
        input[60] = b'q';
        let input = InputView::new(&input, 8, 1).unwrap();
        traces_agree(&nfa, &input);
    }

    #[test]
    fn table_bytes_scales_with_alphabet() {
        let mut nfa4 = Nfa::new(4);
        nfa4.add_state(Ste::new(SymbolSet::full(4)));
        let mut nfa8 = Nfa::new(8);
        nfa8.add_state(Ste::new(SymbolSet::full(8)));
        assert_eq!(DenseEngine::table_bytes(&nfa4), (16 + 1) * 8);
        assert_eq!(DenseEngine::table_bytes(&nfa8), (256 + 1) * 8);
    }

    #[test]
    fn byte_classes_shrink_the_accept_table() {
        // "ab" distinguishes 3 symbol classes; the accept table holds 3
        // rows instead of 256.
        let nfa = compile_regex("ab", 0).unwrap();
        let dense = DenseEngine::new(&nfa);
        assert_eq!(dense.class_count(0), 3);
        assert_eq!(
            dense.tables().bytes(),
            DenseEngine::classed_table_bytes(&nfa)
        );
        assert!(DenseEngine::classed_table_bytes(&nfa) < DenseEngine::table_bytes(&nfa));
    }
}

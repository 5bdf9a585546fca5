//! The functional automata simulator.
//!
//! [`Simulator`] executes a homogeneous NFA cycle by cycle over an input
//! stream, exactly following the three-stage model of the paper's Figure 1:
//! per cycle, the set of *potential next states* (successors of the current
//! active set plus the enabled start states) is intersected with the set of
//! states whose charsets match the current symbol vector; the result is the
//! next active set and its reporting members emit reports.
//!
//! The implementation is frontier-based: per cycle the cost is proportional
//! to the number of enabled candidate states, not the automaton size, using
//! generation stamps instead of clearing bitsets.
//!
//! Two build-time specializations keep the hot loop tight (see
//! [`crate::fastpath`]): each state's charset is compiled into the cheapest
//! matching encoding (empty / single symbol / range / sorted list / bitset
//! / full), and a per-symbol start LUT powers a rare-byte *prefilter* —
//! when the frontier is empty and the sink observes only reports, whole
//! runs of cycles whose leading symbol cannot enable any start state are
//! skipped without stepping.

use std::sync::Arc;

use sunder_automata::input::InputView;
use sunder_automata::{AutomataError, Nfa, StateId};

use crate::exec::Engine;
use crate::fastpath::{SparseTables, StartIndex, ENCODING_KINDS};
use crate::sink::{ReportEvent, ReportSink};

/// Cycle-by-cycle executor for one automaton over one input stream.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
/// use sunder_automata::InputView;
/// use sunder_sim::{Simulator, TraceSink};
///
/// let nfa = compile_regex("ab", 9)?;
/// let input = InputView::new(b"xxabx", 8, 1)?;
/// let mut sim = Simulator::new(&nfa);
/// let mut trace = TraceSink::new();
/// sim.run(&input, &mut trace);
/// assert_eq!(trace.cycle_id_pairs(), vec![(3, 9)]);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    nfa: &'a Nfa,
    /// Compiled symbol codes, CSR successors, start index and prefilter
    /// LUT — shareable across simulators of the same automaton.
    tables: Arc<SparseTables>,
    /// Current active set (sparse).
    active: Vec<StateId>,
    /// Candidate de-duplication stamps.
    stamp: Vec<u64>,
    generation: u64,
    cycle: u64,
    /// Scratch: candidate states for the current cycle.
    candidates: Vec<StateId>,
    /// Scratch: reports for the current cycle.
    reports: Vec<ReportEvent>,
    /// Cycles the prefilter skipped without stepping (cumulative; survives
    /// [`Simulator::reset`]).
    prefilter_skipped: u64,
}

/// Generation-stamped candidate insertion; a free function so the
/// disjoint field borrows are visible to the compiler.
#[inline(always)]
fn push(stamp: &mut [u64], candidates: &mut Vec<StateId>, gen: u64, id: StateId) {
    let slot = &mut stamp[id.index()];
    if *slot != gen {
        *slot = gen;
        candidates.push(id);
    }
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator for the automaton. The automaton must be valid
    /// (see [`Nfa::validate`]).
    pub fn new(nfa: &'a Nfa) -> Self {
        Simulator::with_tables(nfa, Arc::new(SparseTables::build(nfa)))
    }

    /// Prepares a simulator around precompiled tables, skipping the
    /// per-automaton build. The tables must have been built from `nfa`.
    pub(crate) fn with_tables(nfa: &'a Nfa, tables: Arc<SparseTables>) -> Self {
        debug_assert_eq!(tables.stride, nfa.stride());
        Simulator {
            nfa,
            tables,
            active: Vec::new(),
            stamp: vec![0; nfa.num_states()],
            generation: 0,
            cycle: 0,
            candidates: Vec::new(),
            reports: Vec::new(),
            prefilter_skipped: 0,
        }
    }

    /// The automaton being executed.
    pub fn nfa(&self) -> &Nfa {
        self.nfa
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The currently active states (sorted not guaranteed).
    pub fn active_states(&self) -> &[StateId] {
        &self.active
    }

    /// Cycles the rare-byte prefilter skipped without stepping, cumulative
    /// over the simulator's lifetime (not cleared by [`Simulator::reset`]).
    pub fn prefilter_skipped(&self) -> u64 {
        self.prefilter_skipped
    }

    /// Build-time charset-encoding histogram as `(kind, count)` pairs —
    /// how many state × position charsets compiled to each specialized
    /// encoding (`empty`, `one`, `range`, `sparse`, `dense`, `full`).
    pub fn encoding_histogram(&self) -> [(&'static str, u64); 6] {
        let mut out = [("", 0u64); 6];
        for (slot, (kind, &count)) in out
            .iter_mut()
            .zip(ENCODING_KINDS.iter().zip(&self.tables.encoding_counts))
        {
            *slot = (kind, count);
        }
        out
    }

    /// Resets to the initial configuration (cycle 0, empty active set).
    pub fn reset(&mut self) {
        self.active.clear();
        self.cycle = 0;
        // Stamps stay monotone; no clearing needed.
    }

    /// Captures the current execution state (canonical ascending-state
    /// frontier plus cycle clock) into `out`; see
    /// [`crate::exec::Engine::suspend`].
    pub fn suspend(&self, out: &mut crate::exec::EngineState) {
        out.frontier.clear();
        out.frontier.extend_from_slice(&self.active);
        out.frontier.sort_unstable_by_key(|s| s.index());
        out.cycle = self.cycle;
    }

    /// Restores a suspended execution state; see
    /// [`crate::exec::Engine::resume`].
    pub fn resume(&mut self, state: &crate::exec::EngineState) {
        self.active.clear();
        self.active.extend_from_slice(&state.frontier);
        self.cycle = state.cycle;
    }

    /// One cycle of the stride-1 specialization: candidates are checked
    /// against their (single) charset *before* insertion, so the separate
    /// match pass of the general path disappears, and bucketed start
    /// states skip the check entirely (bucket membership is the match).
    /// Trace-identical to the general path by construction: insertion
    /// order and dedup discipline are unchanged, only the filter moved.
    ///
    /// With `QUIET` the per-cycle activity callbacks are omitted — legal
    /// only for sinks whose `wants_cycle_activity` and
    /// `wants_active_states` are both `false`.
    fn step1<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        sym: u16,
        sink: &mut S,
    ) -> usize {
        self.generation += 1;
        self.candidates.clear();
        let gen = self.generation;
        // Field-disjoint borrows: hoisting the shared-table deref out of
        // the loops lets the optimizer keep it in a register across the
        // stamp/candidate writes.
        let tables = &*self.tables;
        let stamp = &mut self.stamp;
        let candidates = &mut self.candidates;

        for &s in &self.active {
            for &t in tables.successors(s) {
                if tables.matches1(t, sym) {
                    push(stamp, candidates, gen, t);
                }
            }
        }
        // The `== 1` short-circuit keeps the (slow) u64 modulo off the
        // per-cycle path for the overwhelmingly common period-1 case.
        if tables.start_period == 1 || self.cycle.is_multiple_of(tables.start_period) {
            match &tables.start_index {
                StartIndex::Bucketed { off, flat } => {
                    let i = usize::from(sym);
                    for &id in &flat[off[i] as usize..off[i + 1] as usize] {
                        push(stamp, candidates, gen, id);
                    }
                }
                StartIndex::Flat(starts) => {
                    for &id in starts {
                        if tables.matches1(id, sym) {
                            push(stamp, candidates, gen, id);
                        }
                    }
                }
            }
        }
        if self.cycle == 0 {
            for &id in &tables.sod_starts {
                if tables.matches1(id, sym) {
                    push(stamp, candidates, gen, id);
                }
            }
        }

        // Candidates are already matched: they ARE the next frontier.
        std::mem::swap(&mut self.active, &mut self.candidates);

        self.reports.clear();
        for &id in &self.active {
            if self.tables.has_reports(id) {
                for r in self.nfa.state(id).reports() {
                    // offset 0 is the only live position at stride 1.
                    if r.offset == 0 {
                        self.reports.push(ReportEvent {
                            cycle: self.cycle,
                            state: id,
                            info: *r,
                        });
                    }
                }
            }
        }
        if self.reports.len() > 1 {
            self.reports.sort_by_key(|e| e.state.index());
        }
        if !self.reports.is_empty() {
            sink.on_cycle_reports(self.cycle, &self.reports);
        }
        if !QUIET {
            sink.on_cycle_activity(self.cycle, self.active.len());
            if sink.wants_active_states() {
                sink.on_active_states(self.cycle, &self.active);
            }
        }
        self.cycle += 1;
        self.active.len()
    }

    /// Executes one cycle on a symbol vector whose first `valid` entries
    /// carry real input, delivering any reports to `sink`.
    ///
    /// Returns the number of active states after the cycle.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// the automaton's stride: silently misreading a mismatched view would
    /// corrupt every downstream statistic.
    pub fn step<S: ReportSink + ?Sized>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        self.step_impl::<S, false>(vector, valid, sink)
    }

    /// [`Simulator::step`] minus the per-cycle activity callbacks. Legal
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
        assert_eq!(
            vector.len(),
            self.tables.stride,
            "symbol vector length must equal the automaton stride"
        );

        // A symbol outside the alphabet can match no charset: the frontier
        // dies this cycle (hoisted here so the per-candidate match loop
        // never needs bounds checks on the symbol).
        let live = valid.min(self.tables.stride);
        if vector[..live]
            .iter()
            .any(|&s| usize::from(s) >= self.tables.alphabet)
        {
            self.active.clear();
            if !QUIET {
                sink.on_cycle_activity(self.cycle, 0);
                if sink.wants_active_states() {
                    sink.on_active_states(self.cycle, &self.active);
                }
            }
            self.cycle += 1;
            return 0;
        }

        // Stride 1 (the dominant configuration) takes a specialized path
        // that folds the match check into candidate insertion.
        if self.tables.stride == 1 && live == 1 {
            return self.step1::<S, QUIET>(vector[0], sink);
        }

        self.generation += 1;
        self.candidates.clear();
        let gen = self.generation;

        // Successors of the current frontier (CSR arena walk).
        for &s in &self.active {
            for &t in self.tables.successors(s) {
                push(&mut self.stamp, &mut self.candidates, gen, t);
            }
        }

        // Start states, respecting the start period and cycle 0.
        if self.tables.start_period == 1 || self.cycle.is_multiple_of(self.tables.start_period) {
            match &self.tables.start_index {
                StartIndex::Bucketed { off, flat } => {
                    let i = usize::from(vector[0]);
                    for &id in &flat[off[i] as usize..off[i + 1] as usize] {
                        push(&mut self.stamp, &mut self.candidates, gen, id);
                    }
                }
                StartIndex::Flat(starts) => {
                    for &id in starts {
                        push(&mut self.stamp, &mut self.candidates, gen, id);
                    }
                }
            }
        }
        if self.cycle == 0 {
            for &id in &self.tables.sod_starts {
                push(&mut self.stamp, &mut self.candidates, gen, id);
            }
        }

        // Match phase, through the specialized per-state symbol codes.
        self.active.clear();
        self.reports.clear();
        let nfa = self.nfa;
        let candidates = std::mem::take(&mut self.candidates);
        for &id in &candidates {
            if self.tables.state_matches(id, vector, valid) {
                self.active.push(id);
                for r in nfa.state(id).reports() {
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
            }
        }
        self.candidates = candidates;

        // Candidate order depends on frontier history; deliver reports in
        // state order so every engine produces byte-identical traces.
        if self.reports.len() > 1 {
            self.reports.sort_by_key(|e| e.state.index());
        }
        if !self.reports.is_empty() {
            sink.on_cycle_reports(self.cycle, &self.reports);
        }
        if !QUIET {
            sink.on_cycle_activity(self.cycle, self.active.len());
            if sink.wants_active_states() {
                sink.on_active_states(self.cycle, &self.active);
            }
        }
        self.cycle += 1;
        self.active.len()
    }

    /// Counts how many cycles of `input`, starting at cycle position
    /// `from_cycle` within the view, are provably idle: the frontier is
    /// empty, no start-of-data start can fire, and the leading symbol of
    /// each cycle misses the start LUT — so stepping them would produce no
    /// active states and no reports. Returns 0 whenever the frontier is
    /// non-empty.
    pub(crate) fn prefilter_scan(&self, input: &InputView, from_cycle: u64) -> u64 {
        if !self.active.is_empty() {
            return 0;
        }
        if self.cycle == 0 && !self.tables.sod_starts.is_empty() {
            return 0;
        }
        let stride = self.tables.stride;
        let syms = input.symbols();
        let total = input.num_cycles() as u64;
        let mut c = from_cycle;
        while c < total && !self.tables.start_lut_hit(syms[(c as usize) * stride]) {
            c += 1;
        }
        c - from_cycle
    }

    /// Advances over `cycles` prefiltered (provably idle) cycles without
    /// stepping, updating the skip statistics.
    pub(crate) fn skip_cycles(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.prefilter_skipped += cycles;
        if sunder_telemetry::enabled() {
            sunder_telemetry::counter_add("prefilter_skipped_total", &[], cycles);
        }
    }

    /// Runs the whole input stream through the automaton.
    ///
    /// Iteration borrows the view's symbol buffers directly, so steady-state
    /// execution performs no allocation. When the sink observes neither
    /// per-cycle activity nor active-state lists, the rare-byte prefilter
    /// skips runs of provably idle cycles instead of stepping them.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the view's stride does not match
    /// the automaton's; see [`Simulator::try_run`] for the fallible form.
    pub fn run<S: ReportSink + ?Sized>(&mut self, input: &InputView, sink: &mut S) {
        self.try_run(input, sink)
            .expect("input view stride must match the automaton stride");
    }

    /// Runs the whole input stream, reporting a stride mismatch as an error
    /// instead of panicking.
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
        let mut it = input.iter_ref();
        if sink.wants_cycle_activity() || sink.wants_active_states() {
            // The sink observes every cycle: no skipping allowed.
            for v in it {
                self.step(v.symbols, v.valid, sink);
            }
            return Ok(());
        }
        // Stride 1 never pads, so the cycle stream IS the symbol slice:
        // walk it directly, with the prefilter scan fused into the loop.
        if self.tables.stride == 1 {
            self.run1_quiet(input, sink);
            return Ok(());
        }
        // Prefiltered loop. `pos` tracks the cycle position within this
        // view (the engine's own counter may be offset when the caller
        // resumed mid-stream, in which case the scan never fires).
        let mut pos: u64 = 0;
        let total = input.num_cycles() as u64;
        while pos < total {
            let skip = self.prefilter_scan(input, pos);
            if skip > 0 {
                self.skip_cycles(skip);
                it.advance_cycles(skip as usize);
                pos += skip;
                if pos >= total {
                    break;
                }
            }
            let v = it.next().expect("iterator covers num_cycles vectors");
            // The sink declared no interest in per-cycle activity above,
            // so the quiet step legally drops those callbacks.
            self.step_quiet(v.symbols, v.valid, sink);
            pos += 1;
        }
        Ok(())
    }

    /// Stride-1 whole-stream loop for activity-blind sinks: indexes the
    /// view's symbol slice directly (no per-cycle iterator or stride
    /// dispatch) and inlines the rare-byte prefilter scan between steps.
    /// Semantically identical to the general prefiltered loop.
    fn run1_quiet<S: ReportSink + ?Sized>(&mut self, input: &InputView, sink: &mut S) {
        let syms = input.symbols();
        let total = input.num_cycles();
        debug_assert_eq!(total, syms.len(), "stride 1 has one symbol per cycle");
        let mut pos = 0usize;
        while pos < total {
            if self.active.is_empty() && (self.cycle != 0 || self.tables.sod_starts.is_empty()) {
                // Frontier is provably idle until the start LUT hits.
                let from = pos;
                while pos < total && !self.tables.start_lut_hit(syms[pos]) {
                    pos += 1;
                }
                if pos > from {
                    self.skip_cycles((pos - from) as u64);
                    if pos >= total {
                        break;
                    }
                }
            }
            let sym = syms[pos];
            if usize::from(sym) >= self.tables.alphabet {
                // Out-of-alphabet symbol: the frontier dies this cycle
                // (quiet form of the general step's OOB branch).
                self.active.clear();
                self.cycle += 1;
            } else {
                self.step1::<S, true>(sym, sink);
            }
            pos += 1;
        }
    }
}

impl Engine for Simulator<'_> {
    fn nfa(&self) -> &Nfa {
        Simulator::nfa(self)
    }

    fn cycle(&self) -> u64 {
        Simulator::cycle(self)
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn reset(&mut self) {
        Simulator::reset(self);
    }

    fn suspend(&self, out: &mut crate::exec::EngineState) {
        Simulator::suspend(self, out);
    }

    fn resume(&mut self, state: &crate::exec::EngineState) {
        Simulator::resume(self, state);
    }

    fn step(&mut self, vector: &[u16], valid: usize, sink: &mut dyn ReportSink) -> usize {
        Simulator::step(self, vector, valid, sink)
    }

    // Statically dispatched loop: one virtual call per run, not per cycle.
    fn run(&mut self, input: &InputView, sink: &mut dyn ReportSink) {
        Simulator::run(self, input, sink);
    }
}

/// Convenience: runs `nfa` over `bytes` at its native width/stride and
/// returns the trace. Intended for tests and examples; big runs should
/// construct a [`Simulator`] with a streaming sink.
///
/// # Errors
///
/// Returns an error if the byte stream cannot be viewed at the automaton's
/// symbol width (see [`InputView::new`]).
pub fn run_trace(
    nfa: &Nfa,
    bytes: &[u8],
) -> Result<crate::sink::TraceSink, sunder_automata::AutomataError> {
    let input = InputView::new(bytes, nfa.symbol_bits(), nfa.stride())?;
    let mut sim = Simulator::new(nfa);
    let mut trace = crate::sink::TraceSink::new();
    sim.run(&input, &mut trace);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, TraceSink};
    use sunder_automata::regex::{compile_regex, compile_rule_set};
    use sunder_automata::{Nfa, StartKind, Ste, SymbolSet};

    #[test]
    fn single_literal_matches_everywhere() {
        let nfa = compile_regex("a", 1).unwrap();
        let trace = run_trace(&nfa, b"aXaa").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(0, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn anchored_only_at_start() {
        let nfa = compile_regex("^ab", 0).unwrap();
        assert_eq!(run_trace(&nfa, b"abab").unwrap().events.len(), 1);
        assert_eq!(run_trace(&nfa, b"xab").unwrap().events.len(), 0);
    }

    #[test]
    fn overlapping_matches() {
        let nfa = compile_regex("aa", 0).unwrap();
        let trace = run_trace(&nfa, b"aaaa").unwrap();
        // Matches end at positions 1, 2, 3.
        assert_eq!(trace.cycle_id_pairs(), vec![(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn dotstar_pattern() {
        let nfa = compile_regex(".*ab", 0).unwrap();
        let trace = run_trace(&nfa, b"zzabzab").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(3, 0), (6, 0)]);
    }

    #[test]
    fn alternation_and_classes() {
        let nfa = compile_rule_set(&["ca[tp]", "dog"]).unwrap();
        let trace = run_trace(&nfa, b"cat dog cap").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(2, 0), (6, 1), (10, 0)]);
    }

    #[test]
    fn plus_loop() {
        let nfa = compile_regex("x[0-9]+y", 0).unwrap();
        let trace = run_trace(&nfa, b"x123y x9y xy").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(4, 0), (8, 0)]);
    }

    #[test]
    fn start_period_gates_all_input_starts() {
        // One state matching symbol 1, AllInput, but period 2: it may only
        // begin matching at even cycles.
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 1))
                .start(StartKind::AllInput)
                .report(0),
        );
        let input = InputView::from_symbols(vec![1, 1, 1, 1], 1);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(
            trace.cycle_id_pairs(),
            vec![(0, 0), (2, 0)],
            "odd-cycle starts must be suppressed"
        );
    }

    #[test]
    fn empty_input_no_reports() {
        let nfa = compile_regex("a", 0).unwrap();
        let trace = run_trace(&nfa, b"").unwrap();
        assert!(trace.events.is_empty());
    }

    #[test]
    fn reset_restores_anchored_behavior() {
        let nfa = compile_regex("^a", 0).unwrap();
        let input = InputView::new(b"a", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut c1 = CountSink::new();
        sim.run(&input, &mut c1);
        assert_eq!(c1.reports, 1);
        sim.reset();
        let mut c2 = CountSink::new();
        sim.run(&input, &mut c2);
        assert_eq!(c2.reports, 1, "start-of-data must re-arm after reset");
    }

    #[test]
    fn strided_state_report_offsets() {
        // A stride-2 automaton over nibbles: state matches [1, *] and
        // reports at offset 0.
        let mut nfa = Nfa::with_stride(4, 2);
        let s = nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::singleton(4, 1), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(7, 0),
        );
        nfa.add_edge(s, s);
        let input = InputView::from_symbols(vec![1, 9, 1], 2);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        // Cycle 0 matches [1,9]; cycle 1 has [1,<pad>] with valid=1 and the
        // don't-care second position, so it matches too.
        assert_eq!(trace.position_id_pairs(2), vec![(0, 7), (2, 7)]);
    }

    #[test]
    fn padding_report_suppression() {
        // Report at offset 1 must NOT fire when only 1 symbol is valid.
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::full(4), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(0, 1),
        );
        let input = InputView::from_symbols(vec![5], 2);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn activity_callback_sees_active_counts() {
        #[derive(Default)]
        struct Activity(Vec<usize>);
        impl ReportSink for Activity {
            fn on_cycle_reports(&mut self, _: u64, _: &[ReportEvent]) {}
            fn on_cycle_activity(&mut self, _: u64, n: usize) {
                self.0.push(n);
            }
        }
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"ab", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut act = Activity::default();
        sim.run(&input, &mut act);
        assert_eq!(act.0, vec![1, 1]);
    }

    #[test]
    fn prefilter_skips_match_hand_computed_input() {
        // "ab" unanchored: the only all-input start accepts 'a', so the
        // LUT is exactly {'a'}. Hand simulation of b"xxxxabxxxa":
        //   cycles 0-3  'x' with empty frontier  -> skipped (4)
        //   cycle  4    'a' LUT hit              -> stepped
        //   cycle  5    'b', frontier non-empty  -> stepped, reports
        //   cycle  6    'x', frontier non-empty  -> stepped, frontier dies
        //   cycles 7-8  'x' with empty frontier  -> skipped (2)
        //   cycle  9    'a' LUT hit              -> stepped
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"xxxxabxxxa", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(5, 0)]);
        assert_eq!(sim.prefilter_skipped(), 6, "4 + 2 skipped cycles");
        assert_eq!(sim.cycle(), 10, "skipped cycles still advance the clock");
    }

    #[test]
    fn prefilter_respects_start_of_data() {
        // "^ab" has no all-input starts (empty LUT), but cycle 0 must
        // still be stepped for the start-of-data state.
        let nfa = compile_regex("^ab", 0).unwrap();
        let input = InputView::new(b"abxxx", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(1, 0)]);
        // Cycles 0-2 stepped (SOD, then a live frontier), 3-4 skipped.
        assert_eq!(sim.prefilter_skipped(), 2);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn prefilter_disabled_when_sink_observes_activity() {
        #[derive(Default)]
        struct Activity(Vec<usize>);
        impl ReportSink for Activity {
            fn on_cycle_reports(&mut self, _: u64, _: &[ReportEvent]) {}
            fn on_cycle_activity(&mut self, _: u64, n: usize) {
                self.0.push(n);
            }
        }
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"xxxxabxxxa", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut act = Activity::default();
        sim.run(&input, &mut act);
        assert_eq!(act.0.len(), 10, "every cycle observed");
        assert_eq!(sim.prefilter_skipped(), 0);
    }

    #[test]
    fn prefiltered_run_matches_stepwise_loop() {
        // Differential check: the prefiltered loop and the naive stepwise
        // loop must produce identical traces, cycles, and frontiers.
        for pattern in ["ab", ".*rare", "x[0-9]+y", "^anchor", "a|b|cdq"] {
            let nfa = compile_regex(pattern, 3).unwrap();
            let input = InputView::new(b"zz ab 123 x77y rare anchor cdq zz", 8, 1).unwrap();
            let mut fast = Simulator::new(&nfa);
            let mut fast_trace = TraceSink::new();
            fast.run(&input, &mut fast_trace);
            let mut slow = Simulator::new(&nfa);
            let mut slow_trace = TraceSink::new();
            for v in input.iter_ref() {
                slow.step(v.symbols, v.valid, &mut slow_trace);
            }
            assert_eq!(fast_trace.events, slow_trace.events, "pattern {pattern}");
            assert_eq!(fast.cycle(), slow.cycle(), "pattern {pattern}");
            let mut fa: Vec<_> = fast.active_states().to_vec();
            let mut sa: Vec<_> = slow.active_states().to_vec();
            fa.sort_by_key(|s| s.index());
            sa.sort_by_key(|s| s.index());
            assert_eq!(fa, sa, "pattern {pattern}");
        }
    }

    #[test]
    fn out_of_alphabet_symbol_kills_the_frontier() {
        // Symbol 9 is outside a 3-bit alphabet: the cycle is dead, but
        // execution continues and later cycles still match.
        let mut nfa = Nfa::new(3);
        nfa.add_state(
            Ste::new(SymbolSet::full(3))
                .start(StartKind::AllInput)
                .report(1),
        );
        let input = InputView::from_symbols(vec![1, 9, 2], 1);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn encoding_histogram_reflects_the_automaton() {
        let nfa = compile_regex("a[0-9]", 0).unwrap();
        let sim = Simulator::new(&nfa);
        let hist = sim.encoding_histogram();
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, nfa.num_states() * nfa.stride());
        let one = hist.iter().find(|&&(k, _)| k == "one").unwrap().1;
        let range = hist.iter().find(|&&(k, _)| k == "range").unwrap().1;
        assert!(one >= 1, "'a' compiles to a single-symbol code");
        assert!(range >= 1, "[0-9] compiles to a range code");
    }
}

//! Bit-parallel levelized logic simulation over multi-word lane blocks.
//!
//! Every signal is held as `W` consecutive `u64` words (`W ∈ {1, 2, 4, 8}`,
//! a compile-time const generic), so one gate visit evaluates `W × 64`
//! independent trace lanes with straight-line word-parallel bitwise ops the
//! autovectorizer can chew on. [`SimState`] is the single-word (`W = 1`,
//! 64-lane) specialization that the scalar [`Simulator::eval`] API and all
//! functional consumers use; the campaign engine drives the `*_block`
//! entry points at wider `W`. Lane values are independent of `W`: word `w`
//! of a block carries exactly the lanes a `W = 1` evaluation of that word's
//! inputs would produce.

use polaris_netlist::{GateId, GateKind, Netlist, NetlistError};

/// Signal state for one `W`-word simulation block (`W × 64` trace lanes):
/// `W` consecutive `u64` words per gate (gate-major layout), with the
/// flip-flop states held separately so a clock edge is an explicit commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockState<const W: usize> {
    /// Current value words of every gate, `W` per gate (gate-major); lane
    /// `i` of word `w` carries trace `w * 64 + i` of the block.
    values: Vec<u64>,
    /// State words of every flip-flop, indexed like `values`.
    dff_state: Vec<u64>,
}

/// Signal state for one 64-lane batch — the single-word block.
pub type SimState = BlockState<1>;

impl<const W: usize> BlockState<W> {
    /// All value words, gate-major: gate `g` owns `values()[g * W..(g + 1) * W]`.
    /// For `W = 1` this is one word per gate, indexed by gate id.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The `W` value words of one gate.
    pub fn block(&self, id: GateId) -> &[u64] {
        &self.values[id.index() * W..(id.index() + 1) * W]
    }

    /// Resets every value and flip-flop word to zero (in place, keeping the
    /// allocation — the campaign engine's per-block reset).
    pub fn reset(&mut self) {
        self.values.fill(0);
        self.dff_state.fill(0);
    }

    /// Gives up the state's allocations for [`Simulator::zero_block_in`].
    pub(crate) fn into_buffers(self) -> BlockBuffers {
        BlockBuffers {
            values: self.values,
            dff_state: self.dff_state,
        }
    }
}

/// The allocations of a [`BlockState`] of any width, kept between uses.
#[derive(Debug, Default)]
pub(crate) struct BlockBuffers {
    values: Vec<u64>,
    dff_state: Vec<u64>,
}

impl BlockState<1> {
    /// Value word of a gate.
    pub fn value(&self, id: GateId) -> u64 {
        self.values[id.index()]
    }
}

#[inline]
fn load<const W: usize>(vals: &[u64], idx: usize) -> [u64; W] {
    let mut out = [0u64; W];
    out.copy_from_slice(&vals[idx * W..idx * W + W]);
    out
}

#[inline]
fn invert<const W: usize>(mut a: [u64; W]) -> [u64; W] {
    for v in &mut a {
        *v = !*v;
    }
    a
}

#[inline]
fn fold_block<const W: usize>(
    vals: &[u64],
    fanin: &[GateId],
    init: u64,
    op: impl Fn(u64, u64) -> u64,
) -> [u64; W] {
    let mut acc = [init; W];
    for f in fanin {
        let x = load::<W>(vals, f.index());
        for w in 0..W {
            acc[w] = op(acc[w], x[w]);
        }
    }
    acc
}

/// Evaluates one gate from the value words in `vals`. Returns `None` for
/// kinds the callers handle specially (inputs and flops).
#[inline]
fn eval_gate<const W: usize>(vals: &[u64], gate: &polaris_netlist::Gate) -> Option<[u64; W]> {
    let v = match gate.kind() {
        GateKind::Input | GateKind::Dff => return None,
        GateKind::Const0 => [0u64; W],
        GateKind::Const1 => [!0u64; W],
        GateKind::Buf => load(vals, gate.fanin()[0].index()),
        GateKind::Not => invert(load(vals, gate.fanin()[0].index())),
        GateKind::And => fold_block(vals, gate.fanin(), !0u64, |a, b| a & b),
        GateKind::Or => fold_block(vals, gate.fanin(), 0, |a, b| a | b),
        GateKind::Nand => invert(fold_block(vals, gate.fanin(), !0u64, |a, b| a & b)),
        GateKind::Nor => invert(fold_block(vals, gate.fanin(), 0, |a, b| a | b)),
        GateKind::Xor => fold_block(vals, gate.fanin(), 0, |a, b| a ^ b),
        GateKind::Xnor => invert(fold_block(vals, gate.fanin(), 0, |a, b| a ^ b)),
        GateKind::Mux => {
            let s = load::<W>(vals, gate.fanin()[0].index());
            let a = load::<W>(vals, gate.fanin()[1].index());
            let b = load::<W>(vals, gate.fanin()[2].index());
            let mut out = [0u64; W];
            for w in 0..W {
                out[w] = (s[w] & a[w]) | (!s[w] & b[w]);
            }
            out
        }
    };
    Some(v)
}

/// A compiled, levelized simulator for one netlist.
///
/// Construction topologically sorts the combinational logic once; every
/// [`Simulator::eval`] / [`Simulator::eval_block`] then visits gates in
/// that fixed order, evaluating all lanes of a block per visit.
#[derive(Clone, Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<GateId>,
}

impl<'a> Simulator<'a> {
    /// Compiles a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design has
    /// combinational feedback.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let order = netlist.topo_order()?;
        Ok(Simulator { netlist, order })
    }

    /// The netlist this simulator was compiled for.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Creates an all-zero single-word state (flip-flops reset to 0).
    pub fn zero_state(&self) -> SimState {
        self.zero_block::<1>()
    }

    /// Creates an all-zero `W`-word block state (flip-flops reset to 0).
    pub fn zero_block<const W: usize>(&self) -> BlockState<W> {
        self.zero_block_in(BlockBuffers::default())
    }

    /// [`Simulator::zero_block`] built in `buffers`' allocations, which a
    /// state of any width and design handed back with
    /// [`BlockState::into_buffers`].
    pub(crate) fn zero_block_in<const W: usize>(&self, buffers: BlockBuffers) -> BlockState<W> {
        let words = self.netlist.gate_count() * W;
        let zeroed = |mut v: Vec<u64>| {
            v.clear();
            v.resize(words, 0);
            v
        };
        BlockState {
            values: zeroed(buffers.values),
            dff_state: zeroed(buffers.dff_state),
        }
    }

    /// Settles the combinational logic for the given input words.
    ///
    /// `data` and `mask` are lane words for the data and mask inputs, in
    /// declaration order. Flip-flop outputs present their current state.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the input counts of the netlist.
    pub fn eval(&self, state: &mut SimState, data: &[u64], mask: &[u64]) {
        self.eval_block::<1>(state, data, mask);
    }

    /// `W`-word variant of [`Simulator::eval`]: settles all `W × 64` lanes
    /// of a block per gate visit. `data` and `mask` hold `W` consecutive
    /// words per input (input-major), matching the state's gate-major
    /// layout; for `W = 1` the layout coincides with the scalar API.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match `W ×` the input counts.
    pub fn eval_block<const W: usize>(
        &self,
        state: &mut BlockState<W>,
        data: &[u64],
        mask: &[u64],
    ) {
        let nl = self.netlist;
        assert_eq!(
            data.len(),
            nl.data_inputs().len() * W,
            "data input width mismatch"
        );
        assert_eq!(
            mask.len(),
            nl.mask_inputs().len() * W,
            "mask input width mismatch"
        );
        for (k, &id) in nl.data_inputs().iter().enumerate() {
            let i = id.index();
            state.values[i * W..i * W + W].copy_from_slice(&data[k * W..k * W + W]);
        }
        for (k, &id) in nl.mask_inputs().iter().enumerate() {
            let i = id.index();
            state.values[i * W..i * W + W].copy_from_slice(&mask[k * W..k * W + W]);
        }
        for &id in &self.order {
            let gate = nl.gate(id);
            let i = id.index();
            if gate.kind() == GateKind::Dff {
                let (values, dff) = (&mut state.values, &state.dff_state);
                values[i * W..i * W + W].copy_from_slice(&dff[i * W..i * W + W]);
                continue;
            }
            let Some(v) = eval_gate::<W>(&state.values, gate) else {
                continue; // inputs: already assigned
            };
            state.values[i * W..i * W + W].copy_from_slice(&v);
        }
    }

    /// Commits flip-flop next-state values (a positive clock edge). Call
    /// after [`Simulator::eval`]; the new state becomes visible at the next
    /// `eval`.
    pub fn clock(&self, state: &mut SimState) {
        self.clock_block::<1>(state);
    }

    /// `W`-word variant of [`Simulator::clock`].
    pub fn clock_block<const W: usize>(&self, state: &mut BlockState<W>) {
        for (id, gate) in self.netlist.iter() {
            if gate.kind() == GateKind::Dff {
                let src = gate.fanin()[0].index();
                let dst = id.index();
                let v = load::<W>(&state.values, src);
                state.dff_state[dst * W..dst * W + W].copy_from_slice(&v);
            }
        }
    }

    /// Unit-delay settling evaluation with glitch visibility.
    ///
    /// All gates re-evaluate *simultaneously* from the previous wave's
    /// values (the classic synchronous relaxation delay model): a gate whose
    /// inputs arrive at different logic depths transitions multiple times
    /// before settling, exactly the glitching that dominates dynamic power
    /// in deep combinational logic. `on_wave_toggle(gate, diff)` is called
    /// for every gate whose value word changed in a wave, once per wave.
    ///
    /// Returns the number of waves until fixpoint (bounded by the
    /// combinational depth + 1; panics only if the bound `4 + 2·depth` is
    /// exceeded, which cannot happen for a valid levelized netlist).
    pub fn eval_unit_delay(
        &self,
        state: &mut SimState,
        data: &[u64],
        mask: &[u64],
        mut on_wave_toggle: impl FnMut(usize, u64),
    ) -> usize {
        self.eval_unit_delay_block::<1>(state, data, mask, |g, d| on_wave_toggle(g, d[0]))
    }

    /// `W`-word variant of [`Simulator::eval_unit_delay`]: the callback
    /// receives the full `W`-word toggle-difference block of a gate, once
    /// per wave in which any lane of the gate changed.
    pub fn eval_unit_delay_block<const W: usize>(
        &self,
        state: &mut BlockState<W>,
        data: &[u64],
        mask: &[u64],
        mut on_wave_toggle: impl FnMut(usize, &[u64; W]),
    ) -> usize {
        let nl = self.netlist;
        assert_eq!(
            data.len(),
            nl.data_inputs().len() * W,
            "data input width mismatch"
        );
        assert_eq!(
            mask.len(),
            nl.mask_inputs().len() * W,
            "mask input width mismatch"
        );
        for (k, &id) in nl.data_inputs().iter().enumerate() {
            let i = id.index();
            state.values[i * W..i * W + W].copy_from_slice(&data[k * W..k * W + W]);
        }
        for (k, &id) in nl.mask_inputs().iter().enumerate() {
            let i = id.index();
            state.values[i * W..i * W + W].copy_from_slice(&mask[k * W..k * W + W]);
        }
        // Flip-flop outputs present their held state during settling.
        for &id in &self.order {
            if nl.gate(id).kind() == GateKind::Dff {
                let i = id.index();
                let (values, dff) = (&mut state.values, &state.dff_state);
                values[i * W..i * W + W].copy_from_slice(&dff[i * W..i * W + W]);
            }
        }
        let depth_bound = 4 + 2 * self.order.len();
        let mut next = state.values.clone();
        let mut waves = 0usize;
        loop {
            let mut changed = false;
            for &id in &self.order {
                let gate = nl.gate(id);
                let i = id.index();
                let Some(v) = eval_gate::<W>(&state.values, gate) else {
                    continue; // inputs and flops hold their applied values
                };
                let cur = load::<W>(&state.values, i);
                let mut diff = [0u64; W];
                let mut any = 0u64;
                for w in 0..W {
                    diff[w] = v[w] ^ cur[w];
                    any |= diff[w];
                }
                if any != 0 {
                    on_wave_toggle(i, &diff);
                    changed = true;
                }
                next[i * W..i * W + W].copy_from_slice(&v);
            }
            state.values.copy_from_slice(&next);
            waves += 1;
            if !changed {
                return waves;
            }
            assert!(
                waves < depth_bound,
                "unit-delay settling exceeded the depth bound (oscillation?)"
            );
        }
    }

    /// Convenience single-trace functional evaluation: drives boolean inputs,
    /// settles, and returns the primary output values. Sequential state is
    /// all-zero.
    ///
    /// # Errors
    ///
    /// Returns an error message if the input widths are wrong.
    pub fn eval_bool(&self, data: &[bool], mask: &[bool]) -> Result<Vec<bool>, String> {
        let nl = self.netlist;
        if data.len() != nl.data_inputs().len() {
            return Err(format!(
                "expected {} data inputs, got {}",
                nl.data_inputs().len(),
                data.len()
            ));
        }
        if mask.len() != nl.mask_inputs().len() {
            return Err(format!(
                "expected {} mask inputs, got {}",
                nl.mask_inputs().len(),
                mask.len()
            ));
        }
        let to_word = |b: &bool| if *b { !0u64 } else { 0 };
        let dw: Vec<u64> = data.iter().map(to_word).collect();
        let mw: Vec<u64> = mask.iter().map(to_word).collect();
        let mut st = self.zero_state();
        self.eval(&mut st, &dw, &mw);
        Ok(nl
            .outputs()
            .iter()
            .map(|(_, d)| st.value(*d) & 1 == 1)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_netlist::generators;

    fn build(src: &str) -> Netlist {
        polaris_netlist::parse_netlist(src).unwrap()
    }

    #[test]
    fn truth_tables_all_two_input_kinds() {
        let src = "
module t (a, b, y0, y1, y2, y3, y4, y5);
  input a, b;
  output y0, y1, y2, y3, y4, y5;
  and  g0 (y0, a, b);
  or   g1 (y1, a, b);
  nand g2 (y2, a, b);
  nor  g3 (y3, a, b);
  xor  g4 (y4, a, b);
  xnor g5 (y5, a, b);
endmodule";
        let n = build(src);
        let sim = Simulator::new(&n).unwrap();
        let cases = [
            // (a, b) -> and or nand nor xor xnor
            ((false, false), [false, false, true, true, false, true]),
            ((false, true), [false, true, true, false, true, false]),
            ((true, false), [false, true, true, false, true, false]),
            ((true, true), [true, true, false, false, false, true]),
        ];
        for ((a, b), expect) in cases {
            let outs = sim.eval_bool(&[a, b], &[]).unwrap();
            assert_eq!(outs, expect, "inputs a={a} b={b}");
        }
    }

    #[test]
    fn mux_selects_correctly() {
        let src = "
module m (s, a, b, y);
  input s, a, b;
  output y;
  mux g (y, s, a, b);
endmodule";
        let n = build(src);
        let sim = Simulator::new(&n).unwrap();
        for s in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let y = sim.eval_bool(&[s, a, b], &[]).unwrap()[0];
                    assert_eq!(y, if s { a } else { b });
                }
            }
        }
    }

    #[test]
    fn c17_known_vectors() {
        // c17: g22 = !(g10 & g16), g23 = !(g16 & g19) with
        // g10=!(g1&g3), g11=!(g3&g6), g16=!(g2&g11), g19=!(g11&g7).
        let n = generators::iscas_c17();
        let sim = Simulator::new(&n).unwrap();
        let eval = |v: [bool; 5]| sim.eval_bool(&v, &[]).unwrap();
        // All zeros: g10=1, g11=1, g16=1, g19=1 -> g22=0, g23=0.
        assert_eq!(eval([false; 5]), vec![false, false]);
        // All ones: g10=0, g11=0, g16=1, g19=1 -> g22=1, g23=0.
        assert_eq!(eval([true; 5]), vec![true, false]);
    }

    #[test]
    fn ripple_adder_adds() {
        // 4-bit adder via generators::blocks through a hand-built netlist.
        let mut n = Netlist::new("add4");
        let a: Vec<_> = (0..4).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..4).map(|i| n.add_input(format!("b{i}"))).collect();
        let (sum, cout) = generators::blocks::ripple_adder(&mut n, "s", &a, &b, None);
        for (i, s) in sum.iter().enumerate() {
            n.add_output(format!("s{i}"), *s).unwrap();
        }
        n.add_output("cout", cout).unwrap();
        let sim = Simulator::new(&n).unwrap();
        for x in 0u32..16 {
            for y in 0u32..16 {
                let bits = |v: u32| (0..4).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
                let mut inputs = bits(x);
                inputs.extend(bits(y));
                let outs = sim.eval_bool(&inputs, &[]).unwrap();
                let got = outs
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (i, &b)| acc | ((b as u32) << i));
                assert_eq!(got, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let mut n = Netlist::new("mul3");
        let a: Vec<_> = (0..3).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..3).map(|i| n.add_input(format!("b{i}"))).collect();
        let p = generators::blocks::array_multiplier(&mut n, "m", &a, &b);
        for (i, s) in p.iter().enumerate() {
            n.add_output(format!("p{i}"), *s).unwrap();
        }
        let sim = Simulator::new(&n).unwrap();
        for x in 0u32..8 {
            for y in 0u32..8 {
                let bits = |v: u32| (0..3).map(|i| (v >> i) & 1 == 1).collect::<Vec<_>>();
                let mut inputs = bits(x);
                inputs.extend(bits(y));
                let outs = sim.eval_bool(&inputs, &[]).unwrap();
                let got = outs
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (i, &b)| acc | ((b as u32) << i));
                assert_eq!(got, x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn dff_holds_and_updates_on_clock() {
        let src = "
module c (d, q);
  input d;
  output q;
  dff r (q, d);
endmodule";
        let n = build(src);
        let sim = Simulator::new(&n).unwrap();
        let mut st = sim.zero_state();
        // Drive d=1: q stays 0 until clocked.
        sim.eval(&mut st, &[!0u64], &[]);
        let q = n.outputs()[0].1;
        assert_eq!(st.value(q), 0);
        sim.clock(&mut st);
        sim.eval(&mut st, &[!0u64], &[]);
        assert_eq!(st.value(q), !0u64);
        // Drive d=0: q holds 1 until next edge.
        sim.eval(&mut st, &[0], &[]);
        assert_eq!(st.value(q), !0u64);
        sim.clock(&mut st);
        sim.eval(&mut st, &[0], &[]);
        assert_eq!(st.value(q), 0);
    }

    #[test]
    fn toggle_counter_feedback_divides_by_two() {
        // q' = !q toggles every cycle.
        let src = "
module t (y);
  output y;
  dff r (q, d);
  not n1 (d, q);
  buf b1 (y, q);
endmodule";
        let n = build(src);
        let sim = Simulator::new(&n).unwrap();
        let mut st = sim.zero_state();
        let y = n.outputs()[0].1;
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.eval(&mut st, &[], &[]);
            seen.push(st.value(y) & 1);
            sim.clock(&mut st);
        }
        assert_eq!(seen, vec![0, 1, 0, 1]);
    }

    #[test]
    fn lanes_are_independent() {
        let src = "
module t (a, b, y);
  input a, b;
  output y;
  xor g (y, a, b);
endmodule";
        let n = build(src);
        let sim = Simulator::new(&n).unwrap();
        let mut st = sim.zero_state();
        // lane 0: a=1,b=0; lane 1: a=1,b=1; lane 2: a=0,b=1.
        sim.eval(&mut st, &[0b011, 0b110], &[]);
        let y = n.outputs()[0].1;
        assert_eq!(st.value(y) & 0b111, 0b101);
    }

    /// Word `w` of a block evaluation must equal a standalone single-word
    /// evaluation of that word's inputs — the per-word lane-independence
    /// the campaign engine's cross-width identity is built on.
    #[test]
    fn block_words_match_single_word_eval() {
        let n = generators::iscas_like("c432", 1, 5).unwrap();
        let sim = Simulator::new(&n).unwrap();
        let n_data = n.data_inputs().len();
        let mix = |i: usize, w: usize| {
            0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(i as u64 + 1)
                .rotate_left(w as u32 * 7 + 3)
        };

        fn check<const W: usize>(
            sim: &Simulator<'_>,
            n_data: usize,
            gates: usize,
            mix: impl Fn(usize, usize) -> u64,
        ) {
            let mut data = vec![0u64; n_data * W];
            for i in 0..n_data {
                for w in 0..W {
                    data[i * W + w] = mix(i, w);
                }
            }
            let mut blk = sim.zero_block::<W>();
            sim.eval_block::<W>(&mut blk, &data, &[]);
            for w in 0..W {
                let word_data: Vec<u64> = (0..n_data).map(|i| mix(i, w)).collect();
                let mut st = sim.zero_state();
                sim.eval(&mut st, &word_data, &[]);
                for g in 0..gates {
                    assert_eq!(
                        blk.values()[g * W + w],
                        st.values()[g],
                        "W={W} word {w} gate {g}"
                    );
                }
            }
        }
        let gates = n.gate_count();
        check::<2>(&sim, n_data, gates, mix);
        check::<4>(&sim, n_data, gates, mix);
        check::<8>(&sim, n_data, gates, mix);
    }

    /// Unit-delay block settling reports the same per-word toggle waves as
    /// single-word settling.
    #[test]
    fn block_unit_delay_matches_single_word() {
        let n = generators::multiplier(1, 4);
        let sim = Simulator::new(&n).unwrap();
        let n_data = n.data_inputs().len();
        const W: usize = 4;
        let mix = |i: usize, w: usize| {
            0xA5A5_5A5A_0F0F_F0F0u64
                .wrapping_mul((i + 3) as u64)
                .rotate_left((w * 11 + i) as u32)
        };
        let mut data = vec![0u64; n_data * W];
        for i in 0..n_data {
            for w in 0..W {
                data[i * W + w] = mix(i, w);
            }
        }
        let mut blk = sim.zero_block::<W>();
        let mut blk_toggles: Vec<Vec<(usize, u64)>> = vec![Vec::new(); W];
        sim.eval_unit_delay_block::<W>(&mut blk, &data, &[], |g, diff| {
            for w in 0..W {
                if diff[w] != 0 {
                    blk_toggles[w].push((g, diff[w]));
                }
            }
        });
        for (w, blk_word_toggles) in blk_toggles.iter().enumerate() {
            let word_data: Vec<u64> = (0..n_data).map(|i| mix(i, w)).collect();
            let mut st = sim.zero_state();
            let mut word_toggles: Vec<(usize, u64)> = Vec::new();
            sim.eval_unit_delay(&mut st, &word_data, &[], |g, d| word_toggles.push((g, d)));
            assert_eq!(blk_word_toggles, &word_toggles, "word {w}");
            for g in 0..n.gate_count() {
                assert_eq!(blk.values()[g * W + w], st.values()[g], "word {w} gate {g}");
            }
        }
    }

    #[test]
    fn reset_clears_state_in_place() {
        let n = generators::iscas_c17();
        let sim = Simulator::new(&n).unwrap();
        let mut st = sim.zero_block::<2>();
        sim.eval_block::<2>(&mut st, &vec![!0u64; n.data_inputs().len() * 2], &[]);
        assert!(st.values().iter().any(|&v| v != 0));
        st.reset();
        assert!(st.values().iter().all(|&v| v == 0));
        assert_eq!(st, sim.zero_block::<2>());
    }

    #[test]
    fn eval_bool_rejects_wrong_widths() {
        let n = generators::iscas_c17();
        let sim = Simulator::new(&n).unwrap();
        assert!(sim.eval_bool(&[true; 3], &[]).is_err());
    }
}

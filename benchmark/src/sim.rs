//! `paper_tables_sim`: regenerate the paper's Tables 1–4 on the
//! discrete-event path, one simulated run at a time, and check every
//! run's virtual time bit for bit against the recorded values.
//!
//! Each timed operation is one runner call — a sequential baseline
//! (clean or memory-limited), a NavP cell or a message-passing cell —
//! made exactly as `navp_bench::harness::run_table` makes it, so that a
//! cycle is one regeneration of all four tables and each call can be
//! timed and attributed to its layer. Set-up also runs `run_table`
//! itself on Table 2 and checks it against the same recorded values.

use crate::record::{Budget, Recorder};
use navp_bench::harness::{impl_of, run_table, CellImpl};
use navp_bench::paper::{self, Table};
use navp_matrix::Grid2D;
use navp_mm::config::MmConfig;
use navp_mm::runner::{run_mp_sim, run_navp_sim, run_seq_sim, RunOutput, RunnerError};
use navp_sim::CostModel;
use std::fmt::Write as _;
use std::time::Instant;

/// The recorded virtual times, one line per simulated run.
pub const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/sim_reference.tsv");

/// Which simulated run of a table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// Sequential baseline with unlimited memory.
    SeqClean,
    /// Sequential baseline under the memory model.
    SeqActual,
    /// The published column of this index.
    Column(usize),
}

impl What {
    fn label(self, t: &Table) -> &'static str {
        match self {
            What::SeqClean => "seq_clean",
            What::SeqActual => "seq_actual",
            What::Column(c) => t.columns[c].0,
        }
    }
}

/// One simulated run and the virtual time it must produce.
#[derive(Clone, Copy)]
pub struct Cell {
    /// The published table.
    pub table: &'static Table,
    /// Row index in that table.
    pub row: usize,
    /// Which run of the row.
    pub what: What,
    /// Recorded virtual seconds, as `f64` bits.
    pub want: u64,
}

/// The runs of one table in `run_table` order (per row: both
/// sequential baselines, then the columns).
fn table_runs(t: &'static Table) -> impl Iterator<Item = (usize, What)> {
    (0..t.orders.len()).flat_map(move |row| {
        [What::SeqClean, What::SeqActual]
            .into_iter()
            .chain((0..t.columns.len()).map(What::Column))
            .map(move |w| (row, w))
    })
}

/// Regenerate all four tables through the harness and render the
/// reference file.
pub fn render_reference() -> Result<String, RunnerError> {
    let cost = CostModel::paper_cluster();
    let mut out = String::from(
        "# Virtual seconds of every simulated run behind Tables 1-4 under\n\
         # CostModel::paper_cluster(), as navp_bench::harness::run_table computes them.\n\
         # table\trow\tn\tab\trun\tf64_bits\tseconds\n",
    );
    for t in paper::ALL {
        let res = run_table(t, &cost)?;
        for (row, what) in table_runs(t) {
            let r = &res.rows[row];
            let v = match what {
                What::SeqClean => r.seq_clean,
                What::SeqActual => r.seq_actual,
                What::Column(c) => r.cells[c].time,
            };
            let _ = writeln!(
                out,
                "{}\t{row}\t{}\t{}\t{}\t{:#018x}\t{v}",
                t.id,
                r.n,
                r.ab,
                what.label(t),
                v.to_bits()
            );
        }
    }
    Ok(out)
}

/// Parse the reference file into the cell list, in table order.
pub fn parse_reference(text: &str) -> Result<Vec<Cell>, String> {
    let mut want = std::collections::HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return Err(format!("sim reference: malformed line {line:?}"));
        }
        let bits = u64::from_str_radix(f[5].trim_start_matches("0x"), 16)
            .map_err(|e| format!("sim reference: bad bits in {line:?}: {e}"))?;
        want.insert((f[0].to_string(), f[1].to_string(), f[4].to_string()), bits);
    }
    let mut cells = Vec::new();
    for t in paper::ALL {
        for (row, what) in table_runs(t) {
            let key = (t.id.to_string(), row.to_string(), what.label(t).to_string());
            let want = *want
                .get(&key)
                .ok_or_else(|| format!("sim reference: no value for {key:?}"))?;
            cells.push(Cell {
                table: t,
                row,
                what,
                want,
            });
        }
    }
    if cells.len() != want.len() {
        return Err("sim reference: lines that match no simulated run".into());
    }
    Ok(cells)
}

/// Span name of a run's layer: sequential baselines are the `sim`
/// layer's memory model on one PE, NavP cells the `core` simulator,
/// message-passing cells the `mp` layer.
pub fn span_of(c: &Cell) -> &'static str {
    match c.what {
        What::SeqClean | What::SeqActual => "sim:seq_cell",
        What::Column(i) => match impl_of(c.table.columns[i].0) {
            CellImpl::Navp(_) => "core:sim_navp_cell",
            CellImpl::Mp(_) => "mp:sim_cell",
        },
    }
}

/// Execute one run exactly as `run_table` does.
fn run_cell(c: &Cell, cost: &CostModel) -> Result<RunOutput, RunnerError> {
    let t = c.table;
    let cfg = MmConfig::phantom(t.orders[c.row], t.blocks[c.row]);
    let grid = Grid2D::new(t.grid.0, t.grid.1)?;
    match c.what {
        What::SeqClean => {
            let mut clean = *cost;
            clean.mem_capacity = u64::MAX;
            run_seq_sim(&cfg, &clean)
        }
        What::SeqActual => run_seq_sim(&cfg, cost),
        What::Column(i) => match impl_of(t.columns[i].0) {
            CellImpl::Navp(stage) => run_navp_sim(stage, &cfg, grid, cost, false),
            CellImpl::Mp(alg) => run_mp_sim(alg, &cfg, grid, cost),
        },
    }
}

/// Set-up state: the runs of one cycle, in paper order.
pub struct Sim {
    cycle: Vec<Cell>,
    cost: CostModel,
}

/// Load the recorded values and check the harness entry point itself
/// on Table 2 against them.
///
/// The tables are the paper's: this workload takes no generated input,
/// and it runs them in paper order. A seeded table order was tried and
/// dropped: the order alone moved a regeneration's wall by 15–20%
/// (allocator and page-fault state carried from table to table).
pub fn setup() -> Result<Sim, String> {
    let text = std::fs::read_to_string(REFERENCE)
        .map_err(|e| format!("sim reference {REFERENCE}: {e}"))?;
    let cells = parse_reference(&text)?;
    let cost = CostModel::paper_cluster();
    let t2 = run_table(&paper::TABLE2, &cost).map_err(|e| format!("run_table: {e}"))?;
    let row = &t2.rows[0];
    let got = [row.seq_clean, row.seq_actual, row.cells[0].time];
    let want: Vec<u64> = cells
        .iter()
        .filter(|c| c.table.id == paper::TABLE2.id)
        .map(|c| c.want)
        .collect();
    if got.iter().map(|v| v.to_bits()).collect::<Vec<_>>() != want {
        return Err("run_table(Table 2) differs from the recorded virtual times".into());
    }
    Ok(Sim { cycle: cells, cost })
}

/// Run whole regenerations of the four tables until `budget` says stop.
pub fn run(s: &Sim, budget: Budget, rec: &mut Recorder) {
    let t0 = Instant::now();
    let mut cycles = 0;
    let ops0 = rec.ops.len();
    while !budget.done(cycles, rec.ops.len() - ops0, t0.elapsed().as_secs_f64()) {
        let first = rec.ops.len();
        for cell in &s.cycle {
            let req = rec.next_req();
            let op = rec.tracer.enter("bench:op", req);
            let t = Instant::now();
            let res = rec
                .tracer
                .span(span_of(cell), req, || run_cell(cell, &s.cost));
            let latency = t.elapsed();
            rec.tracer.exit(op);
            let check = rec.tracer.enter("bench:check", req);
            let name = || {
                format!(
                    "{} row {} {}",
                    cell.table.id,
                    cell.row,
                    cell.what.label(cell.table)
                )
            };
            let failure = match res.map(|o| o.virt_seconds) {
                Err(e) => Some(format!("{}: {e}", name())),
                Ok(Some(v)) if v.to_bits() == cell.want => None,
                Ok(v) => {
                    rec.virt_mismatch += 1;
                    Some(format!(
                        "{}: virtual time {v:?} differs from the recorded {}",
                        name(),
                        f64::from_bits(cell.want)
                    ))
                }
            };
            rec.tracer.exit(check);
            rec.op(latency, 1.0, failure);
        }
        rec.end_cycle(first);
        cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_reference_covers_every_run_of_the_four_tables() {
        let text = std::fs::read_to_string(REFERENCE).expect("reference file");
        let cells = parse_reference(&text).expect("parses");
        let runs: usize = paper::ALL.iter().map(|t| table_runs(t).count()).sum();
        assert_eq!(cells.len(), runs);
    }

    #[test]
    fn reference_parser_rejects_missing_and_extra_lines() {
        assert!(parse_reference("").is_err());
        let text = std::fs::read_to_string(REFERENCE).expect("reference file");
        let extra = format!("{text}Table 9\t0\t1\t1\tseq_clean\t0x0\t0\n");
        assert!(parse_reference(&extra).is_err());
    }
}

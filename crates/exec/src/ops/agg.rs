//! Hash aggregation with masked aggregates, and partition-wide window
//! aggregates.
//!
//! Masks are first-class here: each aggregate carries its own boolean
//! mask expression (§III.E), so a single GroupBy can aggregate different
//! subsets of its input — the property query fusion relies on to merge
//! two GroupBys into one.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use fusion_common::{ColumnId, FusionError, Result, Schema, Value};
use fusion_expr::{AggFunc, AggregateExpr, ColumnBatch, Expr, HashedKey, WindowExpr};

use crate::context::{BudgetedReservation, ExecContext, IntoContext};
use crate::ops::exchange::collect_morsels;
use crate::ops::scan::{ColumnarMorsel, ScanFragment};
use crate::ops::{drain, row_bytes, BoxedOp, Operator, RowDrain, RowIndex};
use crate::profile::OpSpan;
use crate::{Chunk, Row};

/// Accumulator for one aggregate function instance.
#[derive(Debug, Clone)]
pub enum Acc {
    Count(i64),
    SumInt(Option<i64>),
    SumFloat(Option<f64>),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub fn new(func: AggFunc, int_sum: bool) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if int_sum {
                    Acc::SumInt(None)
                } else {
                    Acc::SumFloat(None)
                }
            }
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Feed one (mask-accepted) value. `v` is `None` for `COUNT(*)`.
    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => {
                // COUNT(*) counts every accepted row; COUNT(x) only
                // non-null values.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            Acc::SumInt(acc) => {
                if let Some(val) = v {
                    if let Some(i) = val.as_i64() {
                        *acc = Some(acc.unwrap_or(0).wrapping_add(i));
                    } else if let Some(f) = val.as_f64() {
                        // Type widened mid-stream: degrade via float.
                        *acc = Some(acc.unwrap_or(0).wrapping_add(f as i64));
                    }
                }
            }
            Acc::SumFloat(acc) => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *acc = Some(acc.unwrap_or(0.0) + f);
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *n += 1;
                    }
                }
            }
            Acc::Min(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        match acc {
                            None => *acc = Some(val.clone()),
                            Some(cur) => {
                                if val < cur {
                                    *acc = Some(val.clone());
                                }
                            }
                        }
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        match acc {
                            None => *acc = Some(val.clone()),
                            Some(cur) => {
                                if val > cur {
                                    *acc = Some(val.clone());
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    pub fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::SumInt(acc) => acc.map(Value::Int64).unwrap_or(Value::Null),
            Acc::SumFloat(acc) => acc.map(Value::Float64).unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *n as f64)
                }
            }
            Acc::Min(acc) | Acc::Max(acc) => acc.clone().unwrap_or(Value::Null),
        }
    }

    /// Fold another accumulator of the same shape into this one — the
    /// merge step of partitioned (morsel-parallel) aggregation. Callers
    /// merge partials in partition-index order, which keeps float sums
    /// bit-identical across runs at a given thread count.
    pub fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::SumInt(a), Acc::SumInt(b)) => {
                if let Some(b) = b {
                    *a = Some(a.unwrap_or(0).wrapping_add(*b));
                }
            }
            (Acc::SumFloat(a), Acc::SumFloat(b)) => {
                if let Some(b) = b {
                    *a = Some(a.unwrap_or(0.0) + b);
                }
            }
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(b) = b {
                    match a {
                        None => *a = Some(b.clone()),
                        Some(cur) => {
                            if b < cur {
                                *a = Some(b.clone());
                            }
                        }
                    }
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(b) = b {
                    match a {
                        None => *a = Some(b.clone()),
                        Some(cur) => {
                            if b > cur {
                                *a = Some(b.clone());
                            }
                        }
                    }
                }
            }
            _ => unreachable!("merging accumulators of different shapes"),
        }
    }
}

/// What one hash aggregate computes, resolved once against its input
/// schema and shared by every [`GroupTable`] built for it.
pub(crate) struct AggSpec {
    group_positions: Vec<usize>,
    aggregates: Vec<AggregateExpr>,
    /// Per aggregate: `SUM` over an Int64 argument accumulates in integers.
    int_sums: Vec<bool>,
    /// The distinct mask expressions. Aggregates frequently share masks
    /// after fusion (e.g. the three Q09 aggregates of one quantity
    /// bucket), so each is evaluated once per row, not once per aggregate.
    masks: Vec<Expr>,
    /// Per aggregate: its slot in `masks`, `None` when unmasked.
    mask_slot: Vec<Option<usize>>,
    /// Scalar (row-at-a-time) evaluation over the input schema.
    input_index: RowIndex,
    /// Field ids of the input schema, parallel to a morsel's columns.
    input_ids: Vec<ColumnId>,
}

impl AggSpec {
    pub(crate) fn new(
        group_positions: Vec<usize>,
        aggregates: Vec<AggregateExpr>,
        input_schema: &Schema,
    ) -> Self {
        let int_sums = aggregates
            .iter()
            .map(|a| {
                a.func == AggFunc::Sum
                    && a.arg.as_ref().is_some_and(|e| {
                        e.data_type(input_schema)
                            .is_ok_and(|t| t == fusion_common::DataType::Int64)
                    })
            })
            .collect();
        let mut masks: Vec<Expr> = Vec::new();
        let mask_slot = aggregates
            .iter()
            .map(|a| {
                (!a.unmasked()).then(|| {
                    masks.iter().position(|m| *m == a.mask).unwrap_or_else(|| {
                        masks.push(a.mask.clone());
                        masks.len() - 1
                    })
                })
            })
            .collect();
        AggSpec {
            group_positions,
            aggregates,
            int_sums,
            masks,
            mask_slot,
            input_index: RowIndex::new(input_schema),
            input_ids: input_schema.fields().iter().map(|f| f.id).collect(),
        }
    }

    /// Resolve a logical aggregate against its (compiled) input schema.
    pub(crate) fn for_plan(
        a: &fusion_plan::plan::Aggregate,
        input_schema: &Schema,
    ) -> Result<Self> {
        let group_positions = a
            .group_by
            .iter()
            .map(|id| {
                input_schema.index_of(*id).ok_or_else(|| {
                    FusionError::Plan(format!("group-by column {id} missing from input"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let aggregates = a.aggregates.iter().map(|x| x.agg.clone()).collect();
        Ok(AggSpec::new(group_positions, aggregates, input_schema))
    }
}

/// Per-group state: one accumulator per aggregate, plus distinct sets for
/// `AGG(DISTINCT x)`. Only [`GroupTable`] touches it.
struct GroupState {
    accs: Vec<Acc>,
    distinct_seen: Vec<Option<HashSet<Value>>>,
}

impl GroupState {
    fn new(spec: &AggSpec) -> Self {
        GroupState {
            accs: spec
                .aggregates
                .iter()
                .zip(&spec.int_sums)
                .map(|(a, int_sum)| Acc::new(a.func, *int_sum))
                .collect(),
            distinct_seen: spec
                .aggregates
                .iter()
                .map(|a| a.distinct.then(HashSet::new))
                .collect(),
        }
    }

    /// Fold one input row into the group — the only place an aggregate's
    /// mask check (§III.E), DISTINCT handling and accumulator update are
    /// written. `accepted(slot)` reads the row's value of a distinct mask;
    /// `arg(i)` yields aggregate `i`'s argument for the row and is called
    /// only when the mask accepts it, so data-dependent argument errors
    /// surface for mask-accepted rows alone.
    fn update(
        &mut self,
        spec: &AggSpec,
        inline_distinct: bool,
        accepted: impl Fn(usize) -> bool,
        mut arg: impl FnMut(usize) -> Result<Option<Value>>,
    ) -> Result<()> {
        for i in 0..spec.aggregates.len() {
            if spec.mask_slot[i].is_some_and(|slot| !accepted(slot)) {
                continue;
            }
            let arg_value = arg(i)?;
            if let Some(seen) = &mut self.distinct_seen[i] {
                match &arg_value {
                    // Deferred DISTINCT records the value only: the
                    // accumulator is rebuilt from the merged seen-set at
                    // finish time — updating it here would double-count
                    // values that also appear in other partitions.
                    Some(v) if !v.is_null() => {
                        if !seen.insert(v.clone()) || !inline_distinct {
                            continue;
                        }
                    }
                    _ => continue,
                }
            }
            self.accs[i].update(arg_value.as_ref());
        }
        Ok(())
    }

    /// Merge a partial from another partition into this one. Distinct
    /// aggregates union their seen-sets only — their accumulators are
    /// rebuilt from the union at finish time, so a value appearing in
    /// several partitions is never double-counted.
    fn merge(&mut self, other: GroupState) {
        for (a, b) in self.accs.iter_mut().zip(&other.accs) {
            a.merge(b);
        }
        for (s, o) in self.distinct_seen.iter_mut().zip(other.distinct_seen) {
            if let (Some(s), Some(o)) = (s, o) {
                s.extend(o);
            }
        }
    }
}

/// The hash-aggregate core: group key → [`GroupState`], with the budget
/// reservation covering the table's bytes. Every aggregate in the
/// executor — pulled row chunks, per-partition scans, pushed columnar
/// morsels — folds into one of these; the drivers differ only in who
/// feeds it and in the fold shape:
///
/// * **inline DISTINCT** — one table accumulated in input order, duplicate
///   DISTINCT values dropped as they arrive;
/// * **deferred DISTINCT** — one table per partition, each recording
///   DISTINCT values only, [`merge`](GroupTable::merge)d in
///   partition-index order and rebuilt from the merged sets in
///   [`finish`](GroupTable::finish).
pub(crate) struct GroupTable<'a> {
    spec: &'a AggSpec,
    groups: HashMap<HashedKey, GroupState>,
    inline_distinct: bool,
    /// Grown once per `accumulate_*` call, so an enforced budget aborts as
    /// soon as it is crossed — per chunk or morsel on a driver's table,
    /// per partition on a partial.
    reservation: BudgetedReservation,
    /// Reservations of merged-in partials, held until the table finishes.
    merged: Vec<BudgetedReservation>,
    ctx: Arc<ExecContext>,
    /// The aggregate's profiling span: accumulate time is attributed to
    /// it as CPU time, table bytes as operator state.
    span: Option<Arc<OpSpan>>,
}

impl<'a> GroupTable<'a> {
    pub(crate) fn new(
        spec: &'a AggSpec,
        ctx: &Arc<ExecContext>,
        span: &Option<Arc<OpSpan>>,
        inline_distinct: bool,
    ) -> Result<Self> {
        let mut reservation = BudgetedReservation::try_new(ctx.clone(), 0)?;
        if let Some(span) = span {
            reservation.set_span(span.clone());
        }
        Ok(GroupTable {
            spec,
            groups: HashMap::new(),
            inline_distinct,
            reservation,
            merged: Vec::new(),
            ctx: ctx.clone(),
            span: span.clone(),
        })
    }

    /// The key's group, created (and its bytes counted) on first sight.
    fn state<'g>(
        groups: &'g mut HashMap<HashedKey, GroupState>,
        spec: &AggSpec,
        key: HashedKey,
        new_bytes: &mut i64,
    ) -> &'g mut GroupState {
        match groups.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                *new_bytes += row_bytes(&e.key().key) + 64 * spec.aggregates.len() as i64;
                e.insert(GroupState::new(spec))
            }
        }
    }

    /// Grow the reservation by the bytes an accumulate call added and
    /// attribute its time to the aggregate.
    fn account(&mut self, new_bytes: i64, start: Instant) -> Result<()> {
        if let Some(span) = &self.span {
            span.add_cpu_nanos(start.elapsed().as_nanos() as u64);
        }
        self.reservation.try_grow(new_bytes)
    }

    /// Fold a batch of rows, evaluating masks and arguments with the
    /// scalar evaluator.
    pub(crate) fn accumulate_rows(&mut self, rows: &[Row]) -> Result<()> {
        let start = Instant::now();
        let spec = self.spec;
        let mut mask_values = vec![false; spec.masks.len()];
        let mut new_bytes = 0i64;
        for row in rows {
            for (value, mask) in mask_values.iter_mut().zip(&spec.masks) {
                *value = spec.input_index.eval_pred(mask, row)?;
            }
            let key = HashedKey::new(spec.group_positions.iter().map(|&p| row[p].clone()).collect());
            Self::state(&mut self.groups, spec, key, &mut new_bytes).update(
                spec,
                self.inline_distinct,
                |slot| mask_values[slot],
                |i| match &spec.aggregates[i].arg {
                    Some(e) => spec.input_index.eval(e, row).map(Some),
                    None => Ok(None),
                },
            )?;
        }
        self.account(new_bytes, start)
    }

    /// Fold one morsel's surviving rows, row-major in selection order.
    /// Masks and arguments are evaluated vectorized — arguments only over
    /// the rows their mask accepts, so data-dependent errors surface
    /// exactly where [`Self::accumulate_rows`] evaluates.
    pub(crate) fn accumulate_morsel(&mut self, morsel: &ColumnarMorsel) -> Result<()> {
        let start = Instant::now();
        let spec = self.spec;
        let metrics = self.ctx.metrics();
        let sel = &morsel.selection;
        let mut batch = ColumnBatch::new();
        for (id, col) in spec.input_ids.iter().zip(&morsel.columns) {
            batch.push(*id, col.as_slice());
        }

        let mut mask_vals: Vec<Vec<bool>> = Vec::with_capacity(spec.masks.len());
        for m in &spec.masks {
            metrics.add_rows_evaluated_vectorized(sel.len() as u64);
            let vs = batch.eval(m, sel)?;
            mask_vals.push(vs.iter().map(|v| v.as_bool() == Some(true)).collect());
        }

        // One value per mask-accepted row, consumed in row order below.
        let mut arg_vals: Vec<Option<std::vec::IntoIter<Value>>> =
            Vec::with_capacity(spec.aggregates.len());
        for (a, slot) in spec.aggregates.iter().zip(&spec.mask_slot) {
            let Some(e) = &a.arg else {
                arg_vals.push(None);
                continue;
            };
            let masked_rows: Vec<usize>;
            let rows: &[usize] = match slot {
                None => sel,
                Some(slot) => {
                    masked_rows = sel
                        .iter()
                        .zip(&mask_vals[*slot])
                        .filter(|(_, accepted)| **accepted)
                        .map(|(&r, _)| r)
                        .collect();
                    &masked_rows
                }
            };
            metrics.add_rows_evaluated_vectorized(rows.len() as u64);
            arg_vals.push(Some(batch.eval(e, rows)?.into_iter()));
        }

        let inline_distinct = self.inline_distinct;
        let mut fold = |state: &mut GroupState, j: usize| {
            state.update(
                spec,
                inline_distinct,
                |slot| mask_vals[slot][j],
                |i| Ok(arg_vals[i].as_mut().and_then(Iterator::next)),
            )
        };
        let mut new_bytes = 0i64;
        if spec.group_positions.is_empty() {
            // Scalar aggregates share one group: hoist the table lookup
            // out of the row loop entirely.
            let key = HashedKey::new(Vec::new());
            let state = Self::state(&mut self.groups, spec, key, &mut new_bytes);
            for j in 0..sel.len() {
                fold(state, j)?;
            }
        } else {
            for (j, &r) in sel.iter().enumerate() {
                let key = HashedKey::new(
                    spec.group_positions
                        .iter()
                        .map(|&p| morsel.columns[p][r].clone())
                        .collect(),
                );
                fold(Self::state(&mut self.groups, spec, key, &mut new_bytes), j)?;
            }
        }
        self.account(new_bytes, start)
    }

    /// Merge a partition's partial table into this one. Callers merge in
    /// partition-index order, which keeps float sums bit-identical across
    /// runs at a given thread count.
    pub(crate) fn merge(&mut self, other: GroupTable<'a>) {
        self.merged.push(other.reservation);
        self.merged.extend(other.merged);
        for (key, state) in other.groups {
            match self.groups.entry(key) {
                Entry::Occupied(mut e) => e.get_mut().merge(state),
                Entry::Vacant(e) => {
                    e.insert(state);
                }
            }
        }
    }

    /// Produce the output rows, sorted by key for a deterministic order. A
    /// GroupBy with no grouping columns emits exactly one row even over
    /// empty input; deferred-DISTINCT accumulators are rebuilt from their
    /// merged seen-sets in sorted order.
    pub(crate) fn finish(self) -> Vec<Row> {
        let spec = self.spec;
        if spec.group_positions.is_empty() && self.groups.is_empty() {
            return vec![GroupState::new(spec).accs.iter().map(Acc::finish).collect()];
        }
        let mut groups: Vec<(HashedKey, GroupState)> = self.groups.into_iter().collect();
        groups.sort_by(|(a, _), (b, _)| a.key.cmp(&b.key));
        groups
            .into_iter()
            .map(|(key, state)| {
                let mut row = key.key;
                for (i, acc) in state.accs.iter().enumerate() {
                    row.push(match &state.distinct_seen[i] {
                        Some(seen) if !self.inline_distinct => {
                            let mut acc = Acc::new(spec.aggregates[i].func, spec.int_sums[i]);
                            let mut vals: Vec<&Value> = seen.iter().collect();
                            vals.sort();
                            for v in vals {
                                acc.update(Some(v));
                            }
                            acc.finish()
                        }
                        _ => acc.finish(),
                    });
                }
                row
            })
            .collect()
    }
}

/// The per-partition fold shape: each worker scans whole partitions and
/// folds each into its own deferred-DISTINCT [`GroupTable`]; the partials
/// are merged in partition-index order, so the result is deterministic
/// regardless of worker scheduling. `scan` returns `None` for a partition
/// that contributes nothing (pruned, or no surviving rows).
pub(crate) fn fold_partitions<M>(
    spec: &AggSpec,
    ctx: &Arc<ExecContext>,
    span: &Option<Arc<OpSpan>>,
    partitions: usize,
    workers: usize,
    scan: impl Fn(usize) -> Result<Option<M>> + Sync,
    accumulate: impl Fn(&mut GroupTable, &M) -> Result<()> + Sync,
) -> Result<Vec<Row>> {
    let partials = collect_morsels(ctx, partitions, workers, |p| {
        let Some(morsel) = scan(p)? else {
            return Ok(None);
        };
        let mut table = GroupTable::new(spec, ctx, span, false)?;
        accumulate(&mut table, &morsel)?;
        Ok(Some(table))
    })?;
    let mut table = GroupTable::new(spec, ctx, span, false)?;
    for (_, partial) in partials {
        table.merge(partial);
    }
    Ok(table.finish())
}

/// What feeds a [`HashAggregateExec`].
pub(crate) enum AggInput {
    /// A child operator: one table accumulated in arrival order with
    /// inline DISTINCT.
    Rows(BoxedOp),
    /// A table scan with more than one worker: the per-partition fold of
    /// [`fold_partitions`] over `(fragment, workers)`.
    Partitions(Arc<ScanFragment>, usize),
}

impl AggInput {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            AggInput::Rows(op) => op.schema(),
            AggInput::Partitions(fragment, _) => fragment.schema(),
        }
    }
}

/// Hash aggregation. A GroupBy with no grouping columns (scalar
/// aggregate) emits exactly one row even over empty input; a GroupBy with
/// no aggregate functions is a DISTINCT.
pub struct HashAggregateExec {
    input: Option<AggInput>,
    spec: AggSpec,
    schema: Schema,
    ctx: Arc<ExecContext>,
    output: Option<RowDrain>,
    span: Option<Arc<OpSpan>>,
}

impl HashAggregateExec {
    pub fn new(
        input: BoxedOp,
        group_positions: Vec<usize>,
        aggregates: Vec<AggregateExpr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Result<Self> {
        let spec = AggSpec::new(group_positions, aggregates, input.schema());
        Ok(Self::with_spec(
            AggInput::Rows(input),
            spec,
            schema,
            ctx.into_ctx(),
        ))
    }

    pub(crate) fn with_spec(
        input: AggInput,
        spec: AggSpec,
        schema: Schema,
        ctx: Arc<ExecContext>,
    ) -> Self {
        HashAggregateExec {
            input: Some(input),
            spec,
            schema,
            ctx,
            output: None,
            span: None,
        }
    }

    fn compute(&mut self) -> Result<Vec<Row>> {
        let input = self
            .input
            .take()
            .expect("aggregate input consumed exactly once: compute runs behind output.is_none()");
        match input {
            AggInput::Rows(mut input) => {
                let mut table = GroupTable::new(&self.spec, &self.ctx, &self.span, true)?;
                while let Some(chunk) = input.next_chunk()? {
                    self.ctx.check()?;
                    table.accumulate_rows(&chunk)?;
                }
                Ok(table.finish())
            }
            AggInput::Partitions(fragment, workers) => fold_partitions(
                &self.spec,
                &self.ctx,
                &self.span,
                fragment.num_partitions(),
                workers,
                |p| Ok(fragment.scan_partition(p)?.filter(|rows| !rows.is_empty())),
                |table, rows| table.accumulate_rows(rows),
            ),
        }
    }
}

impl Operator for HashAggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.output.is_none() {
            self.output = Some(RowDrain::new(self.compute()?));
        }
        Ok(self.output.as_mut().and_then(RowDrain::next_chunk))
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }
}

/// Partition-wide window aggregates: compute `AGG(x)` per partition of
/// `PARTITION BY` keys and append the partition's aggregate to every row.
pub struct WindowExec {
    input: Option<BoxedOp>,
    exprs: Vec<WindowExpr>,
    input_index: RowIndex,
    schema: Schema,
    ctx: Arc<ExecContext>,
    output: Option<RowDrain>,
    span: Option<Arc<OpSpan>>,
}

impl WindowExec {
    pub fn new(
        input: BoxedOp,
        exprs: Vec<WindowExpr>,
        schema: Schema,
        ctx: impl IntoContext,
    ) -> Self {
        let input_index = RowIndex::new(input.schema());
        WindowExec {
            input: Some(input),
            exprs,
            input_index,
            schema,
            ctx: ctx.into_ctx(),
            output: None,
            span: None,
        }
    }

    fn compute(&mut self) -> Result<Vec<Row>> {
        self.ctx.check()?;
        let mut input = self
            .input
            .take()
            .expect("window input consumed exactly once: compute runs behind output.is_none()");
        let rows = drain(input.as_mut())?;
        let bytes: i64 = rows.iter().map(|r| row_bytes(r)).sum();
        let mut reservation = BudgetedReservation::try_new(self.ctx.clone(), bytes)?;
        if let Some(span) = &self.span {
            reservation.set_span(span.clone());
        }
        let _reservation = reservation;

        // Per window expr: partition key -> accumulator.
        let mut states: Vec<HashMap<Vec<Value>, Acc>> =
            self.exprs.iter().map(|_| HashMap::new()).collect();
        let mut keys_per_row: Vec<Vec<Vec<Value>>> = Vec::with_capacity(rows.len());
        for row in &rows {
            let mut row_keys = Vec::with_capacity(self.exprs.len());
            for (i, w) in self.exprs.iter().enumerate() {
                let key: Vec<Value> = w
                    .partition_by
                    .iter()
                    .map(|c| {
                        self.input_index
                            .position(*c)
                            .map(|p| row[p].clone())
                    })
                    .collect::<Result<_>>()?;
                let acc = states[i]
                    .entry(key.clone())
                    .or_insert_with(|| Acc::new(w.func, false));
                let accepted =
                    w.unmasked() || self.input_index.eval_pred(&w.mask, row)?;
                if accepted {
                    let arg_value = match &w.arg {
                        Some(e) => Some(self.input_index.eval(e, row)?),
                        None => None,
                    };
                    acc.update(arg_value.as_ref());
                }
                row_keys.push(key);
            }
            keys_per_row.push(row_keys);
        }

        let mut out = Vec::with_capacity(rows.len());
        for (row, row_keys) in rows.into_iter().zip(keys_per_row) {
            let mut new_row = row;
            for (i, key) in row_keys.iter().enumerate() {
                let v = states[i]
                    .get(key)
                    .map(|a| a.finish())
                    .ok_or_else(|| FusionError::Internal("window partition missing".into()))?;
                new_row.push(v);
            }
            out.push(new_row);
        }
        Ok(out)
    }
}

impl Operator for WindowExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.output.is_none() {
            self.output = Some(RowDrain::new(self.compute()?));
        }
        Ok(self.output.as_mut().and_then(RowDrain::next_chunk))
    }

    fn attach_span(&mut self, span: Arc<OpSpan>) {
        self.span = Some(span);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use fusion_common::{ColumnId, DataType, Field};
    use fusion_expr::{col, lit, Expr};

    fn source(rows: Vec<Vec<Value>>) -> BoxedOp {
        // columns: g (#1, int), v (#2, int), f (#3, bool-ish int)
        let schema = Schema::new(vec![
            Field::new(ColumnId(1), "g", DataType::Int64, true),
            Field::new(ColumnId(2), "v", DataType::Int64, true),
        ]);
        Box::new(ConstantTableExec::new(rows, schema))
    }

    fn rows_i64(data: &[(i64, i64)]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|(g, v)| vec![Value::Int64(*g), Value::Int64(*v)])
            .collect()
    }

    fn out_schema(n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| Field::new(ColumnId(100 + i as u32), format!("o{i}"), DataType::Int64, true))
                .collect(),
        )
    }

    #[test]
    fn grouped_sum_and_count() {
        let input = source(rows_i64(&[(1, 10), (1, 20), (2, 5)]));
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::sum(col(ColumnId(2))),
                AggregateExpr::count_star(),
            ],
            out_schema(3),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1), Value::Int64(30), Value::Int64(2)],
                vec![Value::Int64(2), Value::Int64(5), Value::Int64(1)],
            ]
        );
    }

    #[test]
    fn masks_partition_the_input() {
        let input = source(rows_i64(&[(1, 10), (1, 20), (1, 30)]));
        // SUM(v) FILTER (v < 25), COUNT(*) FILTER (v >= 25)
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::sum(col(ColumnId(2))).with_mask(col(ColumnId(2)).lt(lit(25i64))),
                AggregateExpr::count_star().with_mask(col(ColumnId(2)).gt_eq(lit(25i64))),
            ],
            out_schema(3),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(1), Value::Int64(30), Value::Int64(1)]]
        );
    }

    #[test]
    fn fully_masked_group_still_emits_row() {
        // This is the subtlety §III.E compensates for with COUNT(*) masks:
        // a group whose rows are all rejected by the mask still produces a
        // row (with NULL/0 aggregates).
        let input = source(rows_i64(&[(1, 10)]));
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::sum(col(ColumnId(2))).with_mask(Expr::boolean(false)),
                AggregateExpr::count_star().with_mask(Expr::boolean(false)),
            ],
            out_schema(3),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(1), Value::Null, Value::Int64(0)]]
        );
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let input = source(vec![]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![],
            vec![
                AggregateExpr::count_star(),
                AggregateExpr::sum(col(ColumnId(2))),
            ],
            out_schema(2),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(0), Value::Null]]);
    }

    #[test]
    fn distinct_is_group_by_without_aggs() {
        let input = source(rows_i64(&[(1, 0), (1, 0), (2, 0)]));
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![],
            out_schema(1),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(1)], vec![Value::Int64(2)]]);
    }

    #[test]
    fn distinct_aggregate_dedupes_values() {
        let input = source(rows_i64(&[(1, 10), (1, 10), (1, 20)]));
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![AggregateExpr::count(col(ColumnId(2))).with_distinct(true)],
            out_schema(2),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(rows, vec![vec![Value::Int64(1), Value::Int64(2)]]);
    }

    #[test]
    fn count_ignores_nulls_but_count_star_does_not() {
        let input = source(vec![
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(1), Value::Int64(5)],
        ]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::count(col(ColumnId(2))),
                AggregateExpr::count_star(),
            ],
            out_schema(3),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::Int64(1), Value::Int64(1), Value::Int64(2)]]
        );
    }

    #[test]
    fn group_state_over_hard_budget_aborts() {
        // Three groups of ~64+ bytes of accumulator state each; a 100-byte
        // enforced budget cannot hold them.
        let ctx = ExecContext::builder(ExecMetrics::new())
            .hard_budget(100)
            .build();
        let input = source(rows_i64(&[(1, 10), (2, 20), (3, 30)]));
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![AggregateExpr::sum(col(ColumnId(2)))],
            out_schema(2),
            ctx,
        )
        .unwrap();
        assert!(matches!(
            drain(&mut agg),
            Err(FusionError::ResourceExhausted { .. })
        ));
    }

    #[test]
    fn window_broadcasts_partition_aggregate() {
        let input = source(rows_i64(&[(1, 10), (1, 20), (2, 30)]));
        let w = WindowExpr::new(AggFunc::Avg, Some(col(ColumnId(2))), vec![ColumnId(1)]);
        let mut win = WindowExec::new(
            input,
            vec![w],
            out_schema(3),
            ExecMetrics::new(),
        );
        let rows = drain(&mut win).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][2], Value::Float64(15.0));
        assert_eq!(rows[1][2], Value::Float64(15.0));
        assert_eq!(rows[2][2], Value::Float64(30.0));
    }

    #[test]
    fn window_preserves_row_multiplicity_and_order() {
        let input = source(rows_i64(&[(2, 1), (1, 2), (2, 3)]));
        let w = WindowExpr::new(AggFunc::CountStar, None, vec![ColumnId(1)]);
        let mut win = WindowExec::new(input, vec![w], out_schema(3), ExecMetrics::new());
        let rows = drain(&mut win).unwrap();
        assert_eq!(rows.len(), 3);
        // Row order is preserved (streaming pass-through semantics).
        assert_eq!(rows[0][0], Value::Int64(2));
        assert_eq!(rows[0][2], Value::Int64(2)); // two rows in partition g=2
        assert_eq!(rows[1][2], Value::Int64(1));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod edge_tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use crate::ops::{drain, BoxedOp};
    use fusion_common::{ColumnId, DataType, Field, Value};
    use fusion_expr::col;

    fn source(rows: Vec<Vec<Value>>) -> BoxedOp {
        let schema = Schema::new(vec![
            Field::new(ColumnId(1), "g", DataType::Int64, true),
            Field::new(ColumnId(2), "v", DataType::Float64, true),
        ]);
        Box::new(ConstantTableExec::new(rows, schema))
    }

    fn out_schema(n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| {
                    Field::new(ColumnId(100 + i as u32), format!("o{i}"), DataType::Float64, true)
                })
                .collect(),
        )
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let input = source(vec![
            vec![Value::Null, Value::Float64(1.0)],
            vec![Value::Null, Value::Float64(2.0)],
            vec![Value::Int64(1), Value::Float64(3.0)],
        ]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![AggregateExpr::sum(col(ColumnId(2)))],
            out_schema(2),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(rows.len(), 2);
        // NULL group sorts first and sums 3.0.
        assert_eq!(rows[0], vec![Value::Null, Value::Float64(3.0)]);
    }

    #[test]
    fn min_max_ignore_nulls_and_handle_all_null_groups() {
        let input = source(vec![
            vec![Value::Int64(1), Value::Null],
            vec![Value::Int64(1), Value::Float64(5.0)],
            vec![Value::Int64(2), Value::Null],
        ]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::min(col(ColumnId(2))),
                AggregateExpr::max(col(ColumnId(2))),
            ],
            out_schema(3),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int64(1), Value::Float64(5.0), Value::Float64(5.0)],
                vec![Value::Int64(2), Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn avg_over_only_nulls_is_null() {
        let input = source(vec![vec![Value::Int64(1), Value::Null]]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![],
            vec![AggregateExpr::avg(col(ColumnId(2)))],
            out_schema(1),
            ExecMetrics::new(),
        )
        .unwrap();
        assert_eq!(drain(&mut agg).unwrap(), vec![vec![Value::Null]]);
    }

    #[test]
    fn window_over_empty_input_emits_nothing() {
        let input = source(vec![]);
        let w = WindowExpr::new(AggFunc::Sum, Some(col(ColumnId(2))), vec![ColumnId(1)]);
        let mut win = WindowExec::new(input, vec![w], out_schema(3), ExecMetrics::new());
        assert!(drain(&mut win).unwrap().is_empty());
    }

    #[test]
    fn window_null_partition_keys_group_together() {
        let input = source(vec![
            vec![Value::Null, Value::Float64(1.0)],
            vec![Value::Null, Value::Float64(3.0)],
        ]);
        let w = WindowExpr::new(AggFunc::Avg, Some(col(ColumnId(2))), vec![ColumnId(1)]);
        let mut win = WindowExec::new(input, vec![w], out_schema(3), ExecMetrics::new());
        let rows = drain(&mut win).unwrap();
        assert_eq!(rows[0][2], Value::Float64(2.0));
        assert_eq!(rows[1][2], Value::Float64(2.0));
    }

    #[test]
    fn shared_masks_are_evaluated_consistently() {
        // Two aggregates with the same mask and one with another: results
        // must match the per-aggregate semantics exactly.
        let mask = col(ColumnId(2)).gt(fusion_expr::lit(2.0));
        let input = source(vec![
            vec![Value::Int64(1), Value::Float64(1.0)],
            vec![Value::Int64(1), Value::Float64(3.0)],
            vec![Value::Int64(1), Value::Float64(5.0)],
        ]);
        let mut agg = HashAggregateExec::new(
            input,
            vec![0],
            vec![
                AggregateExpr::count_star().with_mask(mask.clone()),
                AggregateExpr::sum(col(ColumnId(2))).with_mask(mask),
                AggregateExpr::count_star()
                    .with_mask(col(ColumnId(2)).lt(fusion_expr::lit(2.0))),
            ],
            out_schema(4),
            ExecMetrics::new(),
        )
        .unwrap();
        let rows = drain(&mut agg).unwrap();
        assert_eq!(
            rows,
            vec![vec![
                Value::Int64(1),
                Value::Int64(2),
                Value::Float64(8.0),
                Value::Int64(1)
            ]]
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod masked_window_tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use crate::ops::basic::ConstantTableExec;
    use crate::ops::{drain, BoxedOp};
    use fusion_common::{ColumnId, DataType, Field, Value};
    use fusion_expr::{col, lit};

    #[test]
    fn masked_window_accumulates_only_matching_rows() {
        let schema = Schema::new(vec![
            Field::new(ColumnId(1), "g", DataType::Int64, true),
            Field::new(ColumnId(2), "v", DataType::Int64, true),
        ]);
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(10)],
            vec![Value::Int64(1), Value::Int64(100)], // masked out
            vec![Value::Int64(2), Value::Int64(200)], // masked out
        ];
        let input: BoxedOp = Box::new(ConstantTableExec::new(rows, schema));
        let w = WindowExpr::new(AggFunc::Sum, Some(col(ColumnId(2))), vec![ColumnId(1)])
            .with_mask(col(ColumnId(2)).lt(lit(50i64)));
        let out_schema = Schema::new(vec![
            Field::new(ColumnId(1), "g", DataType::Int64, true),
            Field::new(ColumnId(2), "v", DataType::Int64, true),
            Field::new(ColumnId(3), "w", DataType::Int64, true),
        ]);
        let mut win = WindowExec::new(input, vec![w], out_schema, ExecMetrics::new());
        let out = drain(&mut win).unwrap();
        // Every row still gets its partition's (masked) value; partition 2
        // has no accepted rows, so its sum is NULL.
        assert_eq!(out[0][2], Value::Int64(10));
        assert_eq!(out[1][2], Value::Int64(10));
        assert_eq!(out[2][2], Value::Null);
    }
}

/// The three ways a [`GroupTable`] is driven must agree: row chunks,
/// columnar morsels, and per-partition tables merged in index order.
#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod group_table_tests {
    use super::*;
    use crate::metrics::ExecMetrics;
    use fusion_common::{DataType, Field};
    use fusion_expr::{col, lit};

    const G: ColumnId = ColumnId(1);
    const I: ColumnId = ColumnId(2);
    const F: ColumnId = ColumnId(3);

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(G, "g", DataType::Int64, true),
            Field::new(I, "i", DataType::Int64, true),
            Field::new(F, "f", DataType::Float64, true),
        ])
    }

    /// Seeded rows over four group keys (one of them NULL), with NULL
    /// arguments sprinkled in and repeated values for DISTINCT to drop.
    fn seeded_rows(n: usize) -> Vec<Row> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % m
        };
        (0..n)
            .map(|_| {
                let g = match next(4) {
                    0 => Value::Null,
                    k => Value::Int64(k as i64),
                };
                let i = match next(9) {
                    0 => Value::Null,
                    k => Value::Int64(k as i64),
                };
                let f = match next(7) {
                    0 => Value::Null,
                    k => Value::Float64(k as f64 / 7.0 + 0.1),
                };
                vec![g, i, f]
            })
            .collect()
    }

    fn aggregates() -> Vec<AggregateExpr> {
        // Two aggregates share `low`; `high` is a second mask slot.
        let low = col(I).lt(lit(5i64));
        let high = col(I).gt_eq(lit(5i64));
        vec![
            AggregateExpr::count_star(),
            AggregateExpr::count_star().with_mask(low.clone()),
            AggregateExpr::sum(col(I)).with_mask(low),
            AggregateExpr::sum(col(I)).with_mask(high),
            AggregateExpr::count(col(I)).with_distinct(true),
            AggregateExpr::sum(col(I)).with_distinct(true),
            AggregateExpr::min(col(I)),
            AggregateExpr::max(col(F)),
            AggregateExpr::sum(col(F)),
            AggregateExpr::avg(col(F)),
        ]
    }

    fn morsel(rows: &[Row], selection: Vec<usize>) -> ColumnarMorsel {
        ColumnarMorsel {
            columns: (0..schema().len())
                .map(|c| Arc::new(rows.iter().map(|r| r[c].clone()).collect()))
                .collect(),
            selection,
            partition: 0,
        }
    }

    fn table<'a>(spec: &'a AggSpec, inline_distinct: bool) -> GroupTable<'a> {
        let ctx = ExecContext::new(ExecMetrics::new());
        GroupTable::new(spec, &ctx, &None, inline_distinct).unwrap()
    }

    /// (a) row chunks, (b) one columnar morsel, (c) four per-partition
    /// tables — fed alternately as rows and as morsels — merged in index
    /// order.
    fn three_ways(spec: &AggSpec, rows: &[Row]) -> [Result<Vec<Row>>; 3] {
        let chunked = || {
            let mut t = table(spec, true);
            for chunk in rows.chunks(7) {
                t.accumulate_rows(chunk)?;
            }
            Ok(t.finish())
        };
        let columnar = || {
            let mut t = table(spec, true);
            t.accumulate_morsel(&morsel(rows, (0..rows.len()).collect()))?;
            Ok(t.finish())
        };
        let partitioned = || {
            let mut merged = table(spec, false);
            for (p, part) in rows.chunks(rows.len().div_ceil(4).max(1)).enumerate() {
                let mut t = table(spec, false);
                if p % 2 == 0 {
                    t.accumulate_rows(part)?;
                } else {
                    t.accumulate_morsel(&morsel(part, (0..part.len()).collect()))?;
                }
                merged.merge(t);
            }
            Ok(merged.finish())
        };
        [chunked(), columnar(), partitioned()]
    }

    /// Partition-order merging regroups float additions, so float columns
    /// compare within rounding; everything else must be identical.
    fn assert_same_up_to_float_order(a: &[Row], c: &[Row]) {
        assert_eq!(a.len(), c.len());
        for (ra, rc) in a.iter().zip(c) {
            assert_eq!(ra.len(), rc.len());
            for (va, vc) in ra.iter().zip(rc) {
                match (va, vc) {
                    (Value::Float64(x), Value::Float64(y)) => {
                        assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}")
                    }
                    _ => assert_eq!(va, vc),
                }
            }
        }
    }

    #[test]
    fn chunks_morsel_and_merged_partitions_agree() {
        let rows = seeded_rows(300);
        for group_positions in [vec![0], vec![]] {
            let spec = AggSpec::new(group_positions, aggregates(), &schema());
            assert_eq!(spec.masks.len(), 2, "shared masks take one slot");
            assert!(spec.int_sums[2] && !spec.int_sums[8]);
            let [a, b, c] = three_ways(&spec, &rows).map(Result::unwrap);
            assert_eq!(a.len(), if spec.group_positions.is_empty() { 1 } else { 4 });
            assert_eq!(a, b, "row and columnar evaluation fold identically");
            assert_same_up_to_float_order(&a, &c);
        }
    }

    #[test]
    fn scalar_aggregate_with_no_surviving_rows_emits_one_row() {
        let spec = AggSpec::new(vec![], aggregates(), &schema());
        let rows = seeded_rows(20);
        let expected = vec![vec![
            Value::Int64(0),
            Value::Int64(0),
            Value::Null,
            Value::Null,
            Value::Int64(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ]];
        // No input at all, and a morsel whose selection filtered to empty.
        for out in three_ways(&spec, &[]) {
            assert_eq!(out.unwrap(), expected);
        }
        let mut t = table(&spec, true);
        t.accumulate_morsel(&morsel(&rows, vec![])).unwrap();
        assert_eq!(t.finish(), expected);
        // A grouped aggregate over nothing emits nothing.
        let grouped = AggSpec::new(vec![0], aggregates(), &schema());
        for out in three_ways(&grouped, &[]) {
            assert!(out.unwrap().is_empty());
        }
    }

    /// An argument that fails on one row's data surfaces only if that
    /// row's mask accepts it — on both accumulate paths.
    #[test]
    fn argument_errors_surface_only_for_mask_accepted_rows() {
        // `i + 1` cannot be applied to the string smuggled into row 1.
        let rows = vec![
            vec![Value::Int64(1), Value::Int64(1), Value::Float64(1.0)],
            vec![Value::Int64(1), Value::Utf8("bad".into()), Value::Float64(-1.0)],
            vec![Value::Int64(2), Value::Int64(3), Value::Float64(2.0)],
        ];
        let arg = col(I).add(lit(1i64));
        let rejecting = AggSpec::new(
            vec![0],
            vec![AggregateExpr::sum(arg.clone()).with_mask(col(F).gt(lit(0.0)))],
            &schema(),
        );
        let [a, b, c] = three_ways(&rejecting, &rows).map(Result::unwrap);
        let expected = vec![
            vec![Value::Int64(1), Value::Int64(2)],
            vec![Value::Int64(2), Value::Int64(4)],
        ];
        assert_eq!([&a, &b, &c], [&expected; 3]);

        let accepting = AggSpec::new(vec![0], vec![AggregateExpr::sum(arg)], &schema());
        for out in three_ways(&accepting, &rows) {
            assert!(matches!(out, Err(FusionError::Type(_))), "{out:?}");
        }
    }
}

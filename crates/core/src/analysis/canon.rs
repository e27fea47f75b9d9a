//! Canonical plan serialization — the shared vocabulary of the reuse
//! prover and the reuse layer's fingerprints.
//!
//! Moved here from `fusion-reuse::fingerprint` so the analyzer can speak
//! the same canonical language the reuse layer uses to *claim* two
//! subplans are related: certificates in [`super::reuse`] re-derive the
//! canonical form of both sides of a claimed rewrite and discharge the
//! claim in canonical slot space. `fusion-reuse` re-exports everything
//! here, so downstream callers are unaffected by the move.
//!
//! The encoding is:
//!
//! * **alias-insensitive** — output names never enter the encoding;
//!   column identity is structural (base table + ordinal at scans,
//!   canonical expression strings above them);
//! * **instance-insensitive** — fresh [`fusion_common::ColumnId`]s minted
//!   per scan instantiation resolve to structural tokens;
//! * **order-insensitive where semantics are** — conjuncts/disjuncts
//!   sorted, commutative comparison operands ordered, `Inner`/`Cross`
//!   join children and `UnionAll` inputs in canonical order, aggregate
//!   group/agg lists sorted.
//!
//! Alongside the encoding, [`CanonicalForm`] carries one *slot* string
//! per output position: the canonical identity of that column. Slots are
//! the keystone of every splice certificate — a consumer position is
//! soundly fed by a producer position exactly when their slot strings are
//! equal, because a slot string *is* the rendered expression computing
//! that position over the canonical base relations.

use std::collections::HashMap;
use std::fmt;

use fusion_common::ColumnId;
use fusion_expr::{simplify, split_conjuncts, split_disjuncts, AggregateExpr, Expr, WindowExpr};
use fusion_plan::{ConstantTable, JoinType, LogicalPlan};

/// A stable 64-bit fingerprint of a canonicalized plan (FNV-1a over the
/// canonical serialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

/// The canonical form of a plan: its fingerprint, the full canonical
/// serialization (collision-proof equality witness), and one canonical
/// identity string per output column position.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    pub fingerprint: Fingerprint,
    /// Canonical identity of each output position, in the plan's *actual*
    /// output order. Two plans with equal `encoding` have equal slot
    /// multisets; a slot-wise bijection gives the row permutation between
    /// them.
    pub slots: Vec<String>,
    /// The canonical serialization the fingerprint hashes. Comparing
    /// encodings directly rules out hash collisions.
    pub encoding: String,
}

/// Compute the canonical form of a plan.
pub fn canonical_form(plan: &LogicalPlan) -> CanonicalForm {
    let (encoding, slots) = encode(plan);
    CanonicalForm {
        fingerprint: Fingerprint(fnv64(&encoding)),
        slots,
        encoding,
    }
}

/// Compute just the fingerprint of a plan.
pub fn fingerprint(plan: &LogicalPlan) -> Fingerprint {
    canonical_form(plan).fingerprint
}

/// Given two canonically-equal plans, the permutation taking the
/// producer's output positions to the consumer's: `map[j] = k` means
/// consumer position `j` is fed by producer position `k`. Duplicate slots
/// (e.g. a projection emitting the same expression twice) pair up
/// greedily, which is sound because equal slots carry equal values.
pub fn position_map(consumer_slots: &[String], producer_slots: &[String]) -> Option<Vec<usize>> {
    let mut used = vec![false; producer_slots.len()];
    consumer_slots
        .iter()
        .map(|s| {
            let k = producer_slots
                .iter()
                .enumerate()
                .position(|(k, p)| !used[k] && p == s)?;
            used[k] = true;
            Some(k)
        })
        .collect()
}

pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Maps live `ColumnId`s to the canonical slot string of the position
/// producing them.
pub type Resolve = HashMap<ColumnId, String>;

/// The resolve map pairing a plan's output ids with its slot strings.
pub fn resolve_of(plan: &LogicalPlan, slots: &[String]) -> Resolve {
    plan.schema()
        .fields()
        .iter()
        .zip(slots)
        .map(|(f, s)| (f.id, s.clone()))
        .collect()
}

fn resolve_slot(r: &Resolve, id: ColumnId) -> String {
    r.get(&id)
        .cloned()
        .unwrap_or_else(|| format!("?{:?}", id))
}

/// Bottom-up canonical encoder. Returns the canonical serialization and
/// the per-output-position slot strings.
pub fn encode(plan: &LogicalPlan) -> (String, Vec<String>) {
    match plan {
        LogicalPlan::Scan(s) => {
            let table = s.table.to_ascii_lowercase();
            let slots: Vec<String> = s
                .fields
                .iter()
                .zip(&s.column_indices)
                .map(|(f, ord)| format!("{}.{}:{:?}", table, ord, f.data_type))
                .collect();
            let r = resolve_of(plan, &slots);
            let mut filters: Vec<String> = s
                .filters
                .iter()
                .map(|e| render(&simplify(e), &r))
                .collect();
            filters.sort();
            filters.dedup();
            let mut sorted = slots.clone();
            sorted.sort();
            (
                format!("Scan({};[{}];[{}])", table, sorted.join(","), filters.join(",")),
                slots,
            )
        }
        LogicalPlan::Filter(f) => {
            let (enc, slots) = encode(&f.input);
            let r = resolve_of(&f.input, &slots);
            (
                format!("Filter({};{})", render(&simplify(&f.predicate), &r), enc),
                slots,
            )
        }
        LogicalPlan::Project(p) => {
            let (enc, islots) = encode(&p.input);
            let r = resolve_of(&p.input, &islots);
            let slots: Vec<String> = p
                .exprs
                .iter()
                .map(|pe| render(&simplify(&pe.expr), &r))
                .collect();
            let mut sorted = slots.clone();
            sorted.sort();
            (format!("Project([{}];{})", sorted.join(","), enc), slots)
        }
        LogicalPlan::Join(j) => encode_join(j),
        LogicalPlan::Aggregate(a) => {
            let (enc, islots) = encode(&a.input);
            let r = resolve_of(&a.input, &islots);
            let group_slots: Vec<String> = a
                .group_by
                .iter()
                .map(|id| resolve_slot(&r, *id))
                .collect();
            let agg_slots: Vec<String> =
                a.aggregates.iter().map(|ag| canon_agg(&ag.agg, &r)).collect();
            let mut sg = group_slots.clone();
            sg.sort();
            let mut sa = agg_slots.clone();
            sa.sort();
            let encoding = format!(
                "Aggregate([{}];[{}];{})",
                sg.join(","),
                sa.join(","),
                enc
            );
            // Grouping columns keep their input identity (and thus their
            // input slot); aggregate outputs are identified by their
            // canonical aggregate string.
            let slots = group_slots
                .into_iter()
                .chain(agg_slots.into_iter().map(|s| format!("agg.{s}")))
                .collect();
            (encoding, slots)
        }
        LogicalPlan::Window(w) => {
            let (enc, islots) = encode(&w.input);
            let r = resolve_of(&w.input, &islots);
            let wslots: Vec<String> = w
                .exprs
                .iter()
                .map(|wa| canon_window(&wa.window, &r))
                .collect();
            let mut sw = wslots.clone();
            sw.sort();
            let encoding = format!("Window([{}];{})", sw.join(","), enc);
            let slots = islots
                .into_iter()
                .chain(wslots.into_iter().map(|s| format!("w.{s}")))
                .collect();
            (encoding, slots)
        }
        LogicalPlan::MarkDistinct(m) => {
            let (enc, islots) = encode(&m.input);
            let r = resolve_of(&m.input, &islots);
            let mut cols: Vec<String> = m.columns.iter().map(|id| resolve_slot(&r, *id)).collect();
            cols.sort();
            let mask = render(&simplify(&m.mask), &r);
            let mark = format!("mark[{}]:{}", cols.join(","), mask);
            let encoding = format!("MarkDistinct({};{})", mark, enc);
            let slots = islots.into_iter().chain(std::iter::once(mark)).collect();
            (encoding, slots)
        }
        LogicalPlan::UnionAll(u) => {
            let encoded: Vec<(String, Vec<String>)> = u.inputs.iter().map(encode).collect();
            let mut encs: Vec<&str> = encoded.iter().map(|(e, _)| e.as_str()).collect();
            encs.sort_unstable();
            let encoding = format!("UnionAll([{}])", encs.join(";"));
            // A union output position is fed by every input's same
            // position; its identity is the (sorted) multiset of those
            // provenances, so layout-permuted inputs yield distinct slots
            // even when canonical child ordering hides the permutation in
            // the encoding.
            let slots = (0..u.fields.len())
                .map(|i| {
                    let mut feeds: Vec<&str> = encoded
                        .iter()
                        .filter_map(|(_, s)| s.get(i).map(String::as_str))
                        .collect();
                    feeds.sort_unstable();
                    format!("u[{}]", feeds.join(","))
                })
                .collect();
            (encoding, slots)
        }
        LogicalPlan::ConstantTable(c) => {
            let slots: Vec<String> = c
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| format!("const{}:{:?}", i, f.data_type))
                .collect();
            // `$tag`-sized tables are spelled out. A larger leaf is
            // identified by (types, row checksum, row count, view): still
            // an equality witness, and O(fields) however many rows a
            // splice put behind it.
            let rows = if c.len() <= ConstantTable::INLINE_ROWS {
                format!("{:?}", c.view().collect::<Vec<_>>())
            } else {
                format!("#{:016x}x{}@{:?}", c.checksum(), c.len(), c.columns())
            };
            (format!("ConstantTable([{}];{})", slots.join(","), rows), slots)
        }
        LogicalPlan::EnforceSingleRow(e) => {
            let (enc, slots) = encode(&e.input);
            (format!("EnforceSingleRow({})", enc), slots)
        }
        LogicalPlan::Sort(s) => {
            let (enc, slots) = encode(&s.input);
            let r = resolve_of(&s.input, &slots);
            let keys: Vec<String> = s
                .keys
                .iter()
                .map(|k| {
                    format!(
                        "{}:{}:{}",
                        render(&simplify(&k.expr), &r),
                        k.asc,
                        k.nulls_first
                    )
                })
                .collect();
            (format!("Sort([{}];{})", keys.join(","), enc), slots)
        }
        LogicalPlan::Limit(l) => {
            let (enc, slots) = encode(&l.input);
            (format!("Limit({};{})", l.fetch, enc), slots)
        }
    }
}

fn encode_join(j: &fusion_plan::Join) -> (String, Vec<String>) {
    let (le, lslots) = encode(&j.left);
    let (re, rslots) = encode(&j.right);
    // Inner and cross joins are commutative: encode children in canonical
    // (lexicographic) order so operand-swapped plans fingerprint equal.
    // Slots still follow the *actual* output order; the canonical `a.`/`b.`
    // prefixes make the permutation recoverable and keep self-join sides
    // distinct.
    let commutative = matches!(j.join_type, JoinType::Inner | JoinType::Cross);
    let left_is_a = !(commutative && re < le);
    let (a_enc, b_enc) = if left_is_a {
        (le.as_str(), re.as_str())
    } else {
        (re.as_str(), le.as_str())
    };
    let prefix = |slots: &[String], p: &str| -> Vec<String> {
        slots.iter().map(|s| format!("{p}.{s}")).collect()
    };
    let (left_slots, right_slots) = if left_is_a {
        (prefix(&lslots, "a"), prefix(&rslots, "b"))
    } else {
        (prefix(&lslots, "b"), prefix(&rslots, "a"))
    };
    let mut r = resolve_of(&j.left, &left_slots);
    r.extend(resolve_of(&j.right, &right_slots));
    let cond = render(&simplify(&j.condition), &r);
    let encoding = format!("Join({:?};{};{};{})", j.join_type, cond, a_enc, b_enc);
    let slots = match j.join_type {
        JoinType::Semi => left_slots,
        _ => left_slots.into_iter().chain(right_slots).collect(),
    };
    (encoding, slots)
}

fn canon_agg(agg: &AggregateExpr, r: &Resolve) -> String {
    let arg = agg
        .arg
        .as_ref()
        .map(|a| render(&simplify(a), r))
        .unwrap_or_else(|| "-".into());
    format!(
        "{:?}:{}:{}:{}",
        agg.func,
        agg.distinct,
        arg,
        render(&simplify(&agg.mask), r)
    )
}

fn canon_window(w: &WindowExpr, r: &Resolve) -> String {
    let arg = w
        .arg
        .as_ref()
        .map(|a| render(&simplify(a), r))
        .unwrap_or_else(|| "-".into());
    let mut parts: Vec<String> = w.partition_by.iter().map(|id| resolve_slot(r, *id)).collect();
    parts.sort();
    format!(
        "{:?}:{}:[{}]:{}",
        w.func,
        arg,
        parts.join(","),
        render(&simplify(&w.mask), r)
    )
}

/// Render an expression canonically against a resolve map: columns become
/// their slot strings, commutative operand bags are sorted, comparison
/// operands are ordered (flipping the operator when needed).
pub fn render(e: &Expr, r: &Resolve) -> String {
    use fusion_expr::BinaryOp;
    match e {
        Expr::Column(id) => resolve_slot(r, *id),
        Expr::Literal(v) => format!("{v:?}"),
        Expr::Binary {
            op: BinaryOp::And, ..
        } => {
            let mut cs: Vec<String> = split_conjuncts(e).iter().map(|c| render(c, r)).collect();
            cs.sort();
            cs.dedup();
            format!("and({})", cs.join(","))
        }
        Expr::Binary {
            op: BinaryOp::Or, ..
        } => {
            let mut ds: Vec<String> = split_disjuncts(e).iter().map(|d| render(d, r)).collect();
            ds.sort();
            ds.dedup();
            format!("or({})", ds.join(","))
        }
        Expr::Binary { op, left, right } => {
            let l = render(left, r);
            let rr = render(right, r);
            if let Some(flip) = op.commuted() {
                if rr < l {
                    return format!("bin({flip:?},{rr},{l})");
                }
            }
            format!("bin({op:?},{l},{rr})")
        }
        Expr::Not(inner) => format!("not({})", render(inner, r)),
        Expr::Negate(inner) => format!("neg({})", render(inner, r)),
        Expr::IsNull(inner) => format!("isnull({})", render(inner, r)),
        Expr::IsNotNull(inner) => format!("isnotnull({})", render(inner, r)),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let bs: Vec<String> = branches
                .iter()
                .map(|(c, v)| format!("{}=>{}", render(c, r), render(v, r)))
                .collect();
            let els = else_expr
                .as_ref()
                .map(|e| render(e, r))
                .unwrap_or_else(|| "-".into());
            format!("case([{}];{})", bs.join(","), els)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut items: Vec<String> = list.iter().map(|i| render(i, r)).collect();
            items.sort();
            items.dedup();
            format!("in({},{},[{}])", render(expr, r), negated, items.join(","))
        }
        Expr::Cast { expr, to } => format!("cast({},{:?})", render(expr, r), to),
        Expr::ScalarFunction { func, args } => {
            let rendered: Vec<String> = args.iter().map(|a| render(a, r)).collect();
            format!("fn({:?},[{}])", func, rendered.join(","))
        }
    }
}

/// The canonically-rendered conjunct set of a filter predicate, resolved
/// through `r` into slot space: sorted and deduped, so two conjunct sets
/// compare by containment directly.
pub fn rendered_conjuncts(pred: &Expr, r: &Resolve) -> Vec<String> {
    let mut cs: Vec<String> = split_conjuncts(&simplify(pred))
        .iter()
        .map(|c| render(c, r))
        .collect();
    cs.sort();
    cs.dedup();
    cs
}

//! The three workloads: inputs generated from the seed, the op mix the
//! closed loop sends, and the model every checked reply is compared with.
//!
//! * `oltp_point` — point reads and +1 updates on a 1k-row keyed table
//!   next to an unrelated 50k-row table: every request pays the per-request
//!   snapshot copy and a scan while the engine returns one row, so it shows
//!   copy-on-write versions, key access paths and the fixed cost per
//!   request, and almost no γ runs.
//! * `olap_agg` — read-only aggregates, a join and a selective filter over
//!   5k facts: γ dominates and the snapshot copy is small next to the
//!   work, so it shows aggregation and bypasses copy-on-write.
//! * `write_view` — single-row inserts and deletes under a materialized
//!   `GROUP BY` view, XRA transfers and view point reads: the commit path
//!   (validation, view refresh, WAL) that reads never enter.
//!
//! Each mix repeats a fixed pattern of op classes, so the share of each
//! class is the same in every run; only keys and values come from the
//! seed.

use std::collections::{BTreeMap, VecDeque};

use mera_server::{Request, Row};

use crate::client::{Client, Reply};

/// SplitMix64: a tiny seeded generator, enough for uniform keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpPoint,
    OlapAgg,
    WriteView,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "oltp_point" => Some(Workload::OltpPoint),
            "olap_agg" => Some(Workload::OlapAgg),
            "write_view" => Some(Workload::WriteView),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpPoint => "oltp_point",
            Workload::OlapAgg => "olap_agg",
            Workload::WriteView => "write_view",
        }
    }

    /// Ops of the mix run after the load, as part of set-up, so caches
    /// and lazily built state are warm before timing starts.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::OltpPoint | Workload::WriteView => 400,
            Workload::OlapAgg => 80,
        }
    }

    pub fn mix(self, seed: u64) -> Box<dyn Mix> {
        match self {
            Workload::OltpPoint => Box::new(OltpPoint::new(seed)),
            Workload::OlapAgg => Box::new(OlapAgg::new(seed)),
            Workload::WriteView => Box::new(WriteView::new(seed)),
        }
    }
}

/// One request of a mix.
pub struct Op {
    /// Index into [`Mix::classes`].
    pub class: usize,
    pub request: Request,
    /// The keys and values the model needs to fold or check the reply.
    args: [i64; 3],
}

/// A workload's inputs, op stream and model.
pub trait Mix {
    /// Op classes, for per-class accounting: name, and whether its ops
    /// write (they are timed as writes, the rest as reads).
    fn classes(&self) -> &'static [(&'static str, bool)];
    /// `name=rows` for every table, for the run metadata.
    fn tables(&self) -> String;
    /// The statements that create and fill the tables.
    fn load(&self) -> Vec<Request>;
    /// The next op of the closed loop.
    fn next_op(&mut self) -> Op;
    /// Folds a successful reply into the model, checking it where the
    /// model knows the answer.
    fn observe(&mut self, op: &Op, reply: &Reply) -> Result<(), String>;
    /// Checks the final state over the wire against the model.
    fn verify(&self, client: &mut Client) -> Result<(), String>;
}

fn sql(text: String) -> Request {
    Request::Sql(text)
}

/// `INSERT` statements of at most 1000 rows each.
fn inserts(table: &str, rows: impl Iterator<Item = String>) -> Vec<Request> {
    let rows: Vec<String> = rows.collect();
    rows.chunks(1000)
        .map(|c| sql(format!("INSERT INTO {table} VALUES {}", c.join(", "))))
        .collect()
}

/// A result relation as sorted `(values, multiplicity)` pairs.
fn bag(rows: &[Row]) -> Vec<(Vec<String>, u64)> {
    let mut out: Vec<_> = rows
        .iter()
        .map(|r| (r.values.clone(), r.multiplicity))
        .collect();
    out.sort();
    out
}

fn expect_bag(
    what: &str,
    rows: &[Row],
    mut expected: Vec<(Vec<String>, u64)>,
) -> Result<(), String> {
    expected.sort();
    let got = bag(rows);
    if got == expected {
        Ok(())
    } else {
        let show = |b: &[(Vec<String>, u64)]| format!("{} rows, first {:?}", b.len(), b.first());
        Err(format!(
            "{what}: got {}, expected {}",
            show(&got),
            show(&expected)
        ))
    }
}

fn single(reply: &Reply) -> Result<&[Row], String> {
    match reply.results.as_slice() {
        [rows] => Ok(rows),
        other => Err(format!("expected one result relation, got {}", other.len())),
    }
}

fn ints(values: &[i64]) -> Vec<String> {
    values.iter().map(i64::to_string).collect()
}

fn query(client: &mut Client, text: &str) -> Result<Vec<Row>, String> {
    let reply = client.sql(text)?;
    Ok(single(&reply)?.to_vec())
}

// ---------------------------------------------------------------- oltp

const OLTP_ACCOUNTS: i64 = 1_000;
const OLTP_HISTORY: i64 = 50_000;
const OLTP_BALANCE: i64 = 100;

struct OltpPoint {
    rng: Rng,
    seq: u64,
    history: Vec<(i64, i64)>,
    balances: Vec<i64>,
}

impl OltpPoint {
    fn new(seed: u64) -> OltpPoint {
        let mut rng = Rng::new(seed);
        let history = (0..OLTP_HISTORY)
            .map(|_| (rng.range(1, OLTP_ACCOUNTS), rng.range(1, 1_000)))
            .collect();
        OltpPoint {
            rng,
            seq: 0,
            history,
            balances: vec![OLTP_BALANCE; OLTP_ACCOUNTS as usize],
        }
    }
}

impl Mix for OltpPoint {
    fn classes(&self) -> &'static [(&'static str, bool)] {
        &[("read", false), ("update", true)]
    }

    fn tables(&self) -> String {
        format!("accounts={OLTP_ACCOUNTS},history={OLTP_HISTORY}")
    }

    fn load(&self) -> Vec<Request> {
        let mut out = vec![
            sql("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)".into()),
            sql("CREATE TABLE history (id INT, acct INT, amount INT)".into()),
        ];
        out.extend(inserts(
            "accounts",
            (1..=OLTP_ACCOUNTS).map(|id| format!("({id}, {OLTP_BALANCE})")),
        ));
        out.extend(inserts(
            "history",
            self.history
                .iter()
                .enumerate()
                .map(|(i, (acct, amount))| format!("({i}, {acct}, {amount})")),
        ));
        out
    }

    /// Nine point reads, then one update, with uniform keys.
    fn next_op(&mut self) -> Op {
        self.seq += 1;
        let id = self.rng.range(1, OLTP_ACCOUNTS);
        if self.seq.is_multiple_of(10) {
            Op {
                class: 1,
                request: sql(format!(
                    "UPDATE accounts SET balance = balance + 1 WHERE id = {id}"
                )),
                args: [id, 0, 0],
            }
        } else {
            Op {
                class: 0,
                request: sql(format!("SELECT balance FROM accounts WHERE id = {id}")),
                args: [id, 0, 0],
            }
        }
    }

    fn observe(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        let slot = &mut self.balances[(op.args[0] - 1) as usize];
        if op.class == 1 {
            *slot += 1;
            return Ok(());
        }
        expect_bag(
            &format!("balance of account {}", op.args[0]),
            single(reply)?,
            vec![(ints(&[*slot]), 1)],
        )
    }

    fn verify(&self, client: &mut Client) -> Result<(), String> {
        let expected = self
            .balances
            .iter()
            .zip(1..)
            .map(|(b, id)| (ints(&[id, *b]), 1))
            .collect();
        expect_bag(
            "final balances",
            &query(client, "SELECT id, balance FROM accounts")?,
            expected,
        )?;
        expect_bag(
            "history rows",
            &query(client, "SELECT COUNT(*) FROM history")?,
            vec![(ints(&[OLTP_HISTORY]), 1)],
        )
    }
}

// ---------------------------------------------------------------- olap

const OLAP_FACTS: i64 = 5_000;
const OLAP_GROUPS: i64 = 50;
const OLAP_VALUES: i64 = 100_000;
/// Width of the filter class's value range: about 100 of 5k rows.
const OLAP_FILTER_WIDTH: i64 = 2_000;

/// The repeating class pattern over whole-relation aggregate (0), keyed
/// GROUP BY (1), join with GROUP BY (2) and selective filter (3): three
/// filters, four GROUP BYs, one join and two whole-relation aggregates
/// per ten ops. Filters are the fastest class and whole-relation
/// aggregates by far the slowest, so the read median falls inside the
/// GROUP BY class and the tail inside the aggregate class, never on a
/// boundary between classes.
const OLAP_PATTERN: [usize; 10] = [3, 1, 0, 1, 3, 2, 1, 3, 0, 1];

struct OlapAgg {
    rng: Rng,
    seq: usize,
    facts: Vec<(i64, i64)>,
    /// Query texts whose first reply was checked.
    checked: Vec<String>,
}

impl OlapAgg {
    fn new(seed: u64) -> OlapAgg {
        let mut rng = Rng::new(seed);
        let facts = (0..OLAP_FACTS)
            .map(|_| (rng.range(1, OLAP_GROUPS), rng.range(0, OLAP_VALUES - 1)))
            .collect();
        OlapAgg {
            rng,
            seq: 0,
            facts,
            checked: Vec::new(),
        }
    }

    fn whole_text(which: i64) -> &'static str {
        match which {
            0 => "SELECT COUNT(*) FROM facts",
            1 => "SELECT SUM(v) FROM facts",
            _ => "SELECT MAX(v) FROM facts",
        }
    }

    /// The model's answer for an op of the mix.
    fn expected(&self, class: usize, args: [i64; 3]) -> Vec<(Vec<String>, u64)> {
        match class {
            0 => {
                let v = self.facts.iter().map(|f| f.1);
                let x = match args[0] {
                    0 => OLAP_FACTS,
                    1 => v.sum(),
                    _ => v.max().expect("facts are non-empty"),
                };
                vec![(ints(&[x]), 1)]
            }
            1 | 2 => {
                let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
                for (g, v) in &self.facts {
                    *sums.entry(*g).or_default() += v;
                }
                sums.into_iter()
                    .map(|(g, s)| {
                        let key = if class == 1 {
                            g.to_string()
                        } else {
                            format!("'g{g}'")
                        };
                        (vec![key, s.to_string()], 1)
                    })
                    .collect()
            }
            _ => self
                .facts
                .iter()
                .zip(1..)
                .filter(|((_, v), _)| (args[0]..args[0] + OLAP_FILTER_WIDTH).contains(v))
                .map(|((_, v), id)| (ints(&[id, *v]), 1))
                .collect(),
        }
    }
}

impl Mix for OlapAgg {
    fn classes(&self) -> &'static [(&'static str, bool)] {
        &[
            ("whole", false),
            ("group", false),
            ("join", false),
            ("filter", false),
        ]
    }

    fn tables(&self) -> String {
        format!("facts={OLAP_FACTS},dims={OLAP_GROUPS}")
    }

    fn load(&self) -> Vec<Request> {
        let mut out = vec![
            sql("CREATE TABLE facts (id INT PRIMARY KEY, grp INT, v INT)".into()),
            sql("CREATE TABLE dims (grp INT PRIMARY KEY, name TEXT)".into()),
        ];
        out.extend(inserts(
            "facts",
            self.facts
                .iter()
                .zip(1..)
                .map(|((g, v), id)| format!("({id}, {g}, {v})")),
        ));
        out.extend(inserts(
            "dims",
            (1..=OLAP_GROUPS).map(|g| format!("({g}, 'g{g}')")),
        ));
        out
    }

    fn next_op(&mut self) -> Op {
        let class = OLAP_PATTERN[self.seq % OLAP_PATTERN.len()];
        self.seq += 1;
        let (text, args) = match class {
            0 => {
                let which = self.rng.range(0, 2);
                (Self::whole_text(which).to_owned(), [which, 0, 0])
            }
            1 => (
                "SELECT grp, SUM(v) FROM facts GROUP BY grp".to_owned(),
                [0; 3],
            ),
            2 => (
                "SELECT name, SUM(v) FROM facts, dims WHERE facts.grp = dims.grp GROUP BY name"
                    .to_owned(),
                [0; 3],
            ),
            _ => {
                let lo = self.rng.range(0, OLAP_VALUES - OLAP_FILTER_WIDTH);
                (
                    format!(
                        "SELECT id, v FROM facts WHERE v >= {lo} AND v < {}",
                        lo + OLAP_FILTER_WIDTH
                    ),
                    [lo, 0, 0],
                )
            }
        };
        Op {
            class,
            request: sql(text),
            args,
        }
    }

    /// Checks the first reply of every query text of the fixed classes
    /// and the first filter reply.
    fn observe(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        let Request::Sql(text) = &op.request else {
            unreachable!("the olap mix sends SQL only")
        };
        let key = if op.class == 3 {
            "filter"
        } else {
            text.as_str()
        };
        if self.checked.iter().any(|c| c == key) {
            return Ok(());
        }
        self.checked.push(key.to_owned());
        expect_bag(text, single(reply)?, self.expected(op.class, op.args))
    }

    fn verify(&self, client: &mut Client) -> Result<(), String> {
        for which in 0..3 {
            let text = Self::whole_text(which);
            expect_bag(text, &query(client, text)?, self.expected(0, [which, 0, 0]))?;
        }
        let text = "SELECT grp, SUM(v) FROM facts GROUP BY grp";
        expect_bag(text, &query(client, text)?, self.expected(1, [0; 3]))
    }
}

// ---------------------------------------------------------- write_view

const VIEW_ORDERS: i64 = 10_000;
const VIEW_CUSTOMERS: i64 = 500;
const VIEW_ACCOUNTS: i64 = 1_000;
const VIEW_BALANCE: i64 = 1_000;

struct WriteView {
    rng: Rng,
    seq: u64,
    /// Live orders, oldest first: `(id, cust, amt)`.
    orders: VecDeque<(i64, i64, i64)>,
    next_id: i64,
    /// Per customer: `(order count, amount total)`.
    totals: BTreeMap<i64, (i64, i64)>,
    balances: Vec<i64>,
    /// Inserts and deletes sent so far; even ones insert.
    churn: u64,
}

impl WriteView {
    fn new(seed: u64) -> WriteView {
        let mut rng = Rng::new(seed);
        let initial: Vec<(i64, i64)> = (0..VIEW_ORDERS)
            .map(|_| (rng.range(1, VIEW_CUSTOMERS), rng.range(1, 100)))
            .collect();
        let mut view = WriteView {
            rng,
            seq: 0,
            orders: VecDeque::new(),
            next_id: 1,
            totals: BTreeMap::new(),
            balances: vec![VIEW_BALANCE; VIEW_ACCOUNTS as usize],
            churn: 0,
        };
        for (cust, amt) in initial {
            view.add_order(cust, amt);
        }
        view
    }

    fn add_order(&mut self, cust: i64, amt: i64) {
        self.orders.push_back((self.next_id, cust, amt));
        self.next_id += 1;
        let t = self.totals.entry(cust).or_default();
        t.0 += 1;
        t.1 += amt;
    }

    fn expected_totals(&self) -> Vec<(Vec<String>, u64)> {
        self.totals
            .iter()
            .filter(|(_, (n, _))| *n > 0)
            .map(|(c, (_, s))| (ints(&[*c, *s]), 1))
            .collect()
    }
}

impl Mix for WriteView {
    fn classes(&self) -> &'static [(&'static str, bool)] {
        &[
            ("insert", true),
            ("delete", true),
            ("transfer", true),
            ("view_read", false),
        ]
    }

    fn tables(&self) -> String {
        format!("orders={VIEW_ORDERS},accounts={VIEW_ACCOUNTS},cust_totals={VIEW_CUSTOMERS}")
    }

    fn load(&self) -> Vec<Request> {
        let mut out = vec![
            sql("CREATE TABLE orders (id INT PRIMARY KEY, cust INT, amt INT)".into()),
            sql("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)".into()),
        ];
        out.extend(inserts(
            "orders",
            self.orders
                .iter()
                .map(|(id, c, a)| format!("({id}, {c}, {a})")),
        ));
        out.extend(inserts(
            "accounts",
            (1..=VIEW_ACCOUNTS).map(|id| format!("({id}, {VIEW_BALANCE})")),
        ));
        out.push(sql("CREATE MATERIALIZED VIEW cust_totals AS \
             SELECT cust, SUM(amt) FROM orders GROUP BY cust"
            .into()));
        out
    }

    /// Per ten ops: one view read, two transfers, and seven single-row
    /// writes alternating insert and delete-oldest, so the table size
    /// stays flat.
    fn next_op(&mut self) -> Op {
        let at = self.seq % 10;
        self.seq += 1;
        if at == 0 {
            let cust = self.rng.range(1, VIEW_CUSTOMERS);
            return Op {
                class: 3,
                request: sql(format!("SELECT * FROM cust_totals WHERE cust = {cust}")),
                args: [cust, 0, 0],
            };
        }
        if at % 5 == 2 {
            let from = self.rng.range(1, VIEW_ACCOUNTS);
            let to = 1 + (from + self.rng.range(0, VIEW_ACCOUNTS - 2)) % VIEW_ACCOUNTS;
            let amount = self.rng.range(1, 50);
            return Op {
                class: 2,
                request: Request::Xra(format!(
                    "begin update(accounts, select[%1 = {from}](accounts), (%1, %2 - {amount})); \
                     update(accounts, select[%1 = {to}](accounts), (%1, %2 + {amount})); end"
                )),
                args: [from, to, amount],
            };
        }
        self.churn += 1;
        if self.churn % 2 == 1 {
            let (cust, amt) = (self.rng.range(1, VIEW_CUSTOMERS), self.rng.range(1, 100));
            let id = self.next_id;
            Op {
                class: 0,
                request: sql(format!("INSERT INTO orders VALUES ({id}, {cust}, {amt})")),
                args: [id, cust, amt],
            }
        } else {
            let id = self.orders.front().map_or(0, |o| o.0);
            Op {
                class: 1,
                request: sql(format!("DELETE FROM orders WHERE id = {id}")),
                args: [id, 0, 0],
            }
        }
    }

    fn observe(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        match op.class {
            0 => {
                if op.args[0] != self.next_id {
                    return Err(format!("insert of order {} out of order", op.args[0]));
                }
                self.add_order(op.args[1], op.args[2]);
            }
            1 => {
                let (id, cust, amt) = self.orders.pop_front().ok_or("delete from no orders")?;
                if id != op.args[0] {
                    return Err(format!(
                        "deleted order {} but the oldest is {id}",
                        op.args[0]
                    ));
                }
                let t = self.totals.get_mut(&cust).expect("live order has a total");
                t.0 -= 1;
                t.1 -= amt;
            }
            2 => {
                self.balances[(op.args[0] - 1) as usize] -= op.args[2];
                self.balances[(op.args[1] - 1) as usize] += op.args[2];
            }
            _ => {
                let cust = op.args[0];
                let expected = match self.totals.get(&cust) {
                    Some((n, s)) if *n > 0 => vec![(ints(&[cust, *s]), 1)],
                    _ => Vec::new(),
                };
                expect_bag(&format!("cust_totals of {cust}"), single(reply)?, expected)?;
            }
        }
        Ok(())
    }

    fn verify(&self, client: &mut Client) -> Result<(), String> {
        expect_bag(
            "orders rows",
            &query(client, "SELECT COUNT(*) FROM orders")?,
            vec![(ints(&[self.orders.len() as i64]), 1)],
        )?;
        expect_bag(
            "account balance total",
            &query(client, "SELECT SUM(balance) FROM accounts")?,
            vec![(ints(&[VIEW_ACCOUNTS * VIEW_BALANCE]), 1)],
        )?;
        let balances = self
            .balances
            .iter()
            .zip(1..)
            .map(|(b, id)| (ints(&[id, *b]), 1))
            .collect();
        expect_bag(
            "final balances",
            &query(client, "SELECT id, balance FROM accounts")?,
            balances,
        )?;
        let view = query(client, "SELECT * FROM cust_totals")?;
        let fresh = query(client, "SELECT cust, SUM(amt) FROM orders GROUP BY cust")?;
        expect_bag(
            "cust_totals against the model",
            &view,
            self.expected_totals(),
        )?;
        expect_bag("cust_totals against a fresh GROUP BY", &view, bag(&fresh))
    }
}

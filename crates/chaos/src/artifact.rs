//! Reproducer artifacts: a shrunk violation as a deterministic JSON
//! document that replays from its embedded seed.
//!
//! An artifact pairs the minimised `(plan, scenario)` with the violated
//! invariant and is written through the workspace's deterministic
//! [`ToJson`] path — same input, same bytes, so corpus files diff
//! cleanly. Reading one back needs a parser, and the workspace
//! deliberately has no JSON dependency, so this module carries a minimal
//! recursive-descent parser. Its one non-negotiable property is that
//! unsigned integers round-trip **exactly**: seeds and tick timestamps
//! are full-range `u64`s and would silently lose precision above 2⁵³ if
//! squeezed through `f64` like a generic JSON reader would.
//!
//! A parsed artifact is also safe to replay: the parser rejects, as a
//! [`ParseError::Schema`], every value the [`FaultPlan`] builders would
//! refuse or the simulation could not index — an empty fleet, a server
//! id outside the fleet (or outside `u32`), and fault probabilities
//! outside the builders' ranges.

use crate::gen::{ChaosScenario, FleetKind};
use ecolb_cluster::server::ServerId;
use ecolb_faults::plan::{FaultEvent, FaultEventKind, FaultPlan};
use ecolb_metrics::json::{ObjectWriter, ToJson};
use ecolb_simcore::time::{SimDuration, SimTime};
use ecolb_trace::Violation;
use std::fmt;

/// Maximum nesting the parser accepts; reproducer documents are three
/// levels deep, so this is pure stack-overflow armour.
const MAX_DEPTH: u32 = 32;

/// A minimal reproducer: the shrunk plan and scenario plus what they
/// violate. [`ReproArtifact::to_json`] and [`ReproArtifact::parse`] are
/// exact inverses for documents this crate writes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArtifact {
    /// The violated invariant's stable identifier.
    pub invariant: String,
    /// The checker's one-line description of the violation.
    pub detail: String,
    /// Simulated instant of the violation, microseconds.
    pub at_us: u64,
    /// The (shrunk) scenario to rebuild the cluster from.
    pub scenario: ChaosScenario,
    /// The (shrunk) plan; its seed is also the cluster seed.
    pub plan: FaultPlan,
}

impl ReproArtifact {
    /// Packages a shrunk `(plan, scenario)` with the violation it still
    /// triggers.
    pub fn new(violation: &Violation, scenario: ChaosScenario, plan: FaultPlan) -> Self {
        ReproArtifact {
            invariant: violation.invariant.to_string(),
            detail: violation.detail.clone(),
            at_us: violation.at_us,
            scenario,
            plan,
        }
    }

    /// Parses a document previously produced by [`ToJson`].
    pub fn parse(text: &str) -> Result<ReproArtifact, ParseError> {
        let root = parse_json(text)?;
        let invariant = root.str_field("invariant")?.to_string();
        let detail = root.str_field("detail")?.to_string();
        let at_us = root.u64_field("at_us")?;
        let scenario = scenario_from(root.field("scenario")?)?;
        let plan = plan_from(root.field("plan")?, scenario.n_servers)?;
        Ok(ReproArtifact {
            invariant,
            detail,
            at_us,
            scenario,
            plan,
        })
    }
}

impl ToJson for ReproArtifact {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("invariant", &self.invariant.as_str())
            .field("detail", &self.detail.as_str())
            .field("at_us", &self.at_us)
            .field("scenario", &self.scenario)
            .field("plan", &self.plan)
            .finish();
    }
}

fn scenario_from(v: &JsonValue) -> Result<ChaosScenario, ParseError> {
    // Artifacts written before the fleet axis existed carry no `fleet`
    // field; they all ran the homogeneous volume fleet.
    let fleet = match v.get("fleet") {
        None => FleetKind::Uniform,
        Some(val) => match val.as_str() {
            Some("uniform") => FleetKind::Uniform,
            Some("mixed_spot") => FleetKind::MixedSpot,
            _ => return Err(ParseError::schema("fleet", "unknown fleet kind")),
        },
    };
    let n_servers = usize::try_from(v.u64_field("n_servers")?)
        .map_err(|_| ParseError::schema("n_servers", "too many servers for this platform"))?;
    if n_servers == 0 {
        return Err(ParseError::schema(
            "n_servers",
            "a fleet needs at least one server",
        ));
    }
    Ok(ChaosScenario {
        n_servers,
        intervals: v.u64_field("intervals")?,
        intensity: v.f64_field("intensity")?,
        fleet,
    })
}

/// The plan, with each probability held to its builder's range: a
/// delayed transfer is drawn again at every redelivery, so a certain
/// delay (`p = 1`) would never deliver.
fn plan_from(v: &JsonValue, n_servers: usize) -> Result<FaultPlan, ParseError> {
    let mut plan = FaultPlan::empty(v.u64_field("seed")?);
    plan.message_loss_prob = v.prob_field("message_loss_prob", |p| (0.0..=1.0).contains(&p))?;
    plan.message_delay_prob = v.prob_field("message_delay_prob", |p| (0.0..1.0).contains(&p))?;
    plan.max_message_delay = SimDuration::from_ticks(v.u64_field("max_message_delay_us")?);
    plan.wake_failure_prob = v.prob_field("wake_failure_prob", |p| (0.0..=1.0).contains(&p))?;
    for ev in v
        .field("events")?
        .as_array()
        .ok_or(ParseError::schema("events", "expected an array"))?
    {
        plan.events.push(event_from(ev, n_servers)?);
    }
    Ok(plan)
}

fn event_from(v: &JsonValue, n_servers: usize) -> Result<FaultEvent, ParseError> {
    let at = SimTime::from_ticks(v.u64_field("at_us")?);
    let recover_after = match v.field("recover_after_us") {
        Ok(JsonValue::Null) | Err(_) => None,
        Ok(other) => Some(SimDuration::from_ticks(other.as_u64().ok_or(
            ParseError::schema("recover_after_us", "expected an unsigned integer or null"),
        )?)),
    };
    let kind = match v.str_field("kind")? {
        "server_crash" => FaultEventKind::ServerCrash {
            server: v.server_field(n_servers)?,
            recover_after,
        },
        "server_recover" => FaultEventKind::ServerRecover {
            server: v.server_field(n_servers)?,
        },
        "leader_crash" => FaultEventKind::LeaderCrash { recover_after },
        _ => return Err(ParseError::schema("kind", "unknown fault-event kind")),
    };
    Ok(FaultEvent { at, kind })
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed JSON at a byte offset.
    Syntax {
        /// Byte offset of the offending input.
        pos: usize,
        /// What the parser expected.
        msg: &'static str,
    },
    /// Well-formed JSON with the wrong shape.
    Schema {
        /// The field that was missing or mistyped.
        field: &'static str,
        /// What was expected of it.
        msg: &'static str,
    },
}

impl ParseError {
    fn schema(field: &'static str, msg: &'static str) -> Self {
        ParseError::Schema { field, msg }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { pos, msg } => write!(f, "json syntax error at byte {pos}: {msg}"),
            ParseError::Schema { field, msg } => write!(f, "field `{field}`: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value. Unsigned integers keep their exact `u64` value in
/// [`JsonValue::UInt`]; only genuinely fractional, negative or exponent
/// numbers fall back to [`JsonValue::Num`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, preserved exactly.
    UInt(u64),
    /// Any other number, as `f64`.
    Num(f64),
    /// A string with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact unsigned value, if this is a [`JsonValue::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`JsonValue::Arr`].
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    fn field(&self, name: &'static str) -> Result<&JsonValue, ParseError> {
        self.get(name)
            .ok_or(ParseError::schema(name, "missing field"))
    }

    fn u64_field(&self, name: &'static str) -> Result<u64, ParseError> {
        self.field(name)?
            .as_u64()
            .ok_or(ParseError::schema(name, "expected an unsigned integer"))
    }

    fn f64_field(&self, name: &'static str) -> Result<f64, ParseError> {
        self.field(name)?
            .as_f64()
            .ok_or(ParseError::schema(name, "expected a number"))
    }

    fn str_field(&self, name: &'static str) -> Result<&str, ParseError> {
        self.field(name)?
            .as_str()
            .ok_or(ParseError::schema(name, "expected a string"))
    }

    /// A probability that `in_range` accepts (NaN never is).
    fn prob_field(
        &self,
        name: &'static str,
        in_range: impl Fn(f64) -> bool,
    ) -> Result<f64, ParseError> {
        let p = self.f64_field(name)?;
        if in_range(p) {
            Ok(p)
        } else {
            Err(ParseError::schema(name, "probability out of range"))
        }
    }

    /// The `server` field as an id inside an `n_servers` fleet.
    fn server_field(&self, n_servers: usize) -> Result<ServerId, ParseError> {
        let id = u32::try_from(self.u64_field("server")?)
            .map_err(|_| ParseError::schema("server", "server id does not fit u32"))?;
        if (id as usize) < n_servers {
            Ok(ServerId(id))
        } else {
            Err(ParseError::schema("server", "server id outside the fleet"))
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError::Syntax { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: u32) -> Result<JsonValue, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: u32) -> Result<JsonValue, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are guaranteed well-formed).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0b1100_0000) == 0b1000_0000 {
                        end += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8 in string")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected four hex digits after \\u")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = self.pos > start && self.bytes[start] != b'-';
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return Err(self.err("invalid number")),
        };
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            // Out of u64 range: fall through to the float path.
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(JsonValue::Num(x)),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_plan;

    fn sample_artifact() -> ReproArtifact {
        let scenario = ChaosScenario::new(4, 2, 0.5);
        let plan = FaultPlan::empty(u64::MAX - 1)
            .with_server_crash(
                SimTime::from_ticks(600_000_000),
                ServerId(3),
                Some(SimDuration::from_secs(300)),
            )
            .with_leader_crash(SimTime::from_secs(1200), None)
            .with_message_loss(0.05);
        ReproArtifact {
            invariant: "vm_conservation".to_string(),
            detail: "hosted 9 != expected 10 (\"lost\" a VM)".to_string(),
            at_us: 600_000_000,
            scenario,
            plan,
        }
    }

    #[test]
    fn artifacts_round_trip_exactly() {
        let a = sample_artifact();
        let text = a.to_json();
        let back = ReproArtifact::parse(&text).expect("round trip");
        assert_eq!(back, a);
        // And the re-serialisation is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn u64_precision_survives_the_round_trip() {
        // 2^63 + 1 is not representable in f64; a float-based parser
        // would corrupt it.
        let seed = (1u64 << 63) + 1;
        let v = parse_json(&format!("{{\"seed\":{seed}}}")).expect("parse");
        assert_eq!(v.u64_field("seed").expect("field"), seed);
    }

    #[test]
    fn generated_plans_round_trip_through_artifacts() {
        let scenario = ChaosScenario::new(50, 10, 0.9);
        let plan = generate_plan(20140109, 4, &scenario);
        assert!(!plan.events.is_empty(), "want a non-trivial plan");
        let a = ReproArtifact {
            invariant: "leader_uniqueness".to_string(),
            detail: "two leaders".to_string(),
            at_us: 42,
            scenario,
            plan: plan.clone(),
        };
        let back = ReproArtifact::parse(&a.to_json()).expect("round trip");
        assert_eq!(back.plan, plan);
        assert_eq!(back.scenario, scenario);
    }

    #[test]
    fn pre_fleet_artifacts_parse_as_the_uniform_fleet() {
        // A document written before the fleet axis existed: no `fleet`
        // field anywhere. It must keep parsing, as the uniform fleet.
        let a = sample_artifact();
        let legacy = a.to_json().replace(r#","fleet":"uniform""#, "");
        assert!(!legacy.contains("fleet"), "test setup: field removed");
        let back = ReproArtifact::parse(&legacy).expect("legacy parse");
        assert_eq!(back.scenario.fleet, FleetKind::Uniform);
        assert_eq!(back.plan, a.plan);
    }

    #[test]
    fn mixed_spot_artifacts_round_trip_with_their_fleet() {
        let mut a = sample_artifact();
        a.scenario = a.scenario.with_fleet(FleetKind::MixedSpot);
        let text = a.to_json();
        assert!(text.contains(r#""fleet":"mixed_spot""#));
        let back = ReproArtifact::parse(&text).expect("round trip");
        assert_eq!(back, a);
    }

    #[test]
    fn unknown_fleet_kinds_are_rejected() {
        let text = sample_artifact()
            .to_json()
            .replace(r#""fleet":"uniform""#, r#""fleet":"quantum""#);
        let err = ReproArtifact::parse(&text).expect_err("schema error");
        assert_eq!(
            err,
            ParseError::Schema {
                field: "fleet",
                msg: "unknown fleet kind"
            }
        );
    }

    fn schema_error(a: &ReproArtifact) -> ParseError {
        ReproArtifact::parse(&a.to_json()).expect_err("schema error")
    }

    #[test]
    fn server_ids_beyond_u32_are_rejected_not_truncated() {
        // 2^32 + 3 used to wrap silently to server 3.
        let text = sample_artifact()
            .to_json()
            .replace(r#""server":3"#, r#""server":4294967299"#);
        assert!(text.contains("4294967299"), "test setup: id replaced");
        assert_eq!(
            ReproArtifact::parse(&text).expect_err("schema error"),
            ParseError::Schema {
                field: "server",
                msg: "server id does not fit u32"
            }
        );
    }

    #[test]
    fn server_ids_outside_the_fleet_are_rejected() {
        // The sample fleet has 4 servers; id 4 would index past it on
        // replay.
        let text = sample_artifact()
            .to_json()
            .replace(r#""server":3"#, r#""server":4"#);
        assert_eq!(
            ReproArtifact::parse(&text).expect_err("schema error"),
            ParseError::Schema {
                field: "server",
                msg: "server id outside the fleet"
            }
        );
    }

    #[test]
    fn certain_message_delay_is_rejected() {
        // `with_message_delay` refuses p = 1: the redelivered transfer
        // would be delayed again forever.
        let mut a = sample_artifact();
        a.plan.message_delay_prob = 1.0;
        assert_eq!(
            schema_error(&a),
            ParseError::Schema {
                field: "message_delay_prob",
                msg: "probability out of range"
            }
        );
    }

    #[test]
    fn loss_and_wake_probabilities_outside_the_unit_interval_are_rejected() {
        let mut loss = sample_artifact();
        loss.plan.message_loss_prob = 1.5;
        assert_eq!(
            schema_error(&loss),
            ParseError::Schema {
                field: "message_loss_prob",
                msg: "probability out of range"
            }
        );
        let mut wake = sample_artifact();
        wake.plan.wake_failure_prob = -0.25;
        assert_eq!(
            schema_error(&wake),
            ParseError::Schema {
                field: "wake_failure_prob",
                msg: "probability out of range"
            }
        );
    }

    #[test]
    fn empty_fleets_are_rejected() {
        let mut a = sample_artifact();
        a.scenario.n_servers = 0;
        assert_eq!(
            schema_error(&a),
            ParseError::Schema {
                field: "n_servers",
                msg: "a fleet needs at least one server"
            }
        );
    }

    #[test]
    fn string_escapes_decode() {
        let v = parse_json(r#"{"s":"a\"b\\c\ndA"}"#).expect("parse");
        assert_eq!(v.str_field("s").expect("field"), "a\"b\\c\ndA");
    }

    #[test]
    fn syntax_errors_carry_positions() {
        match parse_json("{\"a\":") {
            Err(ParseError::Syntax { pos, .. }) => assert_eq!(pos, 5),
            other => panic!("expected syntax error, got {other:?}"),
        }
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn schema_errors_name_the_field() {
        let err = ReproArtifact::parse("{}").expect_err("schema");
        assert_eq!(
            err,
            ParseError::Schema {
                field: "invariant",
                msg: "missing field"
            }
        );
        assert_eq!(err.to_string(), "field `invariant`: missing field");
    }

    #[test]
    fn numbers_classify_as_uint_or_float() {
        let v = parse_json(r#"[0, 18446744073709551615, 0.5, -3, 1e3, 18446744073709551616]"#)
            .expect("parse");
        let xs = v.as_array().expect("array");
        assert_eq!(xs[0], JsonValue::UInt(0));
        assert_eq!(xs[1], JsonValue::UInt(u64::MAX));
        assert_eq!(xs[2], JsonValue::Num(0.5));
        assert_eq!(xs[3], JsonValue::Num(-3.0));
        assert_eq!(xs[4], JsonValue::Num(1000.0));
        // One past u64::MAX falls back to float rather than erroring.
        assert!(matches!(xs[5], JsonValue::Num(_)));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse_json(&deep).is_err());
    }
}

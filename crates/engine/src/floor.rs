//! The certificate behind `"optimal": true`: a proved lower bound on the
//! problem's weight, and the one test that turns it into optimality.

use jsonkit::Value;

/// Who proved a [`Floor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorSource {
    /// A SAT descent's UNSAT call below `value` (the paper's Algorithm 1
    /// stop), in this process or in a shard worker.
    Unsat,
    /// The branch and bound of [`fermihedral::bound`], which decides a
    /// small race at its opening.
    Bound,
}

impl FloorSource {
    /// Wire and cache form.
    pub fn as_str(self) -> &'static str {
        match self {
            FloorSource::Unsat => "unsat",
            FloorSource::Bound => "bound",
        }
    }
}

/// No encoding of the problem weighs less than `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floor {
    /// The bound itself.
    pub value: usize,
    /// Its proof.
    pub source: FloorSource,
}

impl Floor {
    /// The one optimality test: an encoding of `weight` is optimal when
    /// the floor meets it.
    pub fn pins(self, weight: usize) -> bool {
        self.value == weight
    }

    /// The `floor` and `floor_source` keys a cache entry and a compile
    /// document carry, both `null` without a floor.
    pub fn to_json(floor: Option<Floor>) -> [(&'static str, Value); 2] {
        let value = floor.map_or(Value::Null, |f| Value::Num(f.value as f64));
        let source = floor.map_or(Value::Null, |f| Value::Str(f.source.as_str().into()));
        [("floor", value), ("floor_source", source)]
    }

    /// Inverse of [`to_json`](Self::to_json) on the object holding the
    /// keys; `None` when they are missing or malformed.
    pub fn from_json(doc: &Value) -> Option<Option<Floor>> {
        let value = match doc.get("floor")? {
            Value::Null => return Some(None),
            value => value.as_usize()?,
        };
        let source = match doc.get("floor_source")?.as_str()? {
            "unsat" => FloorSource::Unsat,
            "bound" => FloorSource::Bound,
            _ => return None,
        };
        Some(Some(Floor { value, source }))
    }
}

//! DIMACS CNF reading and writing.
//!
//! The standard interchange format for SAT instances. Fermihedral instances
//! exported here can be cross-checked with external solvers (Kissat,
//! CaDiCaL), mirroring the paper's toolchain.

use crate::cnf::Cnf;
use crate::types::Lit;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Error from [`parse`].
#[derive(Debug)]
pub enum DimacsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content, with a human-readable description.
    Parse(String),
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::Io(e) => write!(f, "i/o error reading DIMACS: {e}"),
            DimacsError::Parse(msg) => write!(f, "invalid DIMACS: {msg}"),
        }
    }
}

impl std::error::Error for DimacsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DimacsError::Io(e) => Some(e),
            DimacsError::Parse(_) => None,
        }
    }
}

impl From<io::Error> for DimacsError {
    fn from(e: io::Error) -> Self {
        DimacsError::Io(e)
    }
}

/// Writes `cnf` in DIMACS format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use sat::{Cnf, dimacs};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// let b = cnf.new_var();
/// cnf.add_clause([a.positive(), b.negative()]);
/// let mut out = Vec::new();
/// dimacs::write(&cnf, &mut out)?;
/// assert_eq!(String::from_utf8(out).unwrap(), "p cnf 2 1\n1 -2 0\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write(cnf: &Cnf, w: &mut impl Write) -> io::Result<()> {
    // Literals are formatted by hand into a chunk that is handed to the
    // writer whole: an N=7 full-SAT instance is 3 M literals and 20 MB of
    // text, and a `write!` per literal costs more in formatting machinery
    // and small writes than the digits themselves.
    let mut chunk = vec![0u8; CHUNK_BYTES];
    let mut header = &mut chunk[..];
    writeln!(header, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    let mut at = CHUNK_BYTES - header.len();
    for clause in cnf.clauses() {
        for &lit in clause {
            at = make_room(&chunk, at, w)?;
            at = put_literal(&mut chunk, at, lit);
        }
        at = make_room(&chunk, at, w)?;
        chunk[at..at + 2].copy_from_slice(b"0\n");
        at += 2;
    }
    w.write_all(&chunk[..at])
}

/// Hands `chunk[..at]` to the writer when another token might not fit;
/// returns the offset to continue at.
#[inline]
fn make_room(chunk: &[u8], at: usize, w: &mut impl Write) -> io::Result<usize> {
    if at + MAX_TOKEN_BYTES > CHUNK_BYTES {
        w.write_all(&chunk[..at])?;
        Ok(0)
    } else {
        Ok(at)
    }
}

/// Size of the writer's staging buffer.
const CHUNK_BYTES: usize = 64 * 1024;
/// The longest token [`put_literal`] emits: sign, ten digits, space.
const MAX_TOKEN_BYTES: usize = 12;

/// Writes `lit` in DIMACS form followed by one space at `chunk[at..]`;
/// returns the offset past the space.
#[inline]
fn put_literal(chunk: &mut [u8], mut at: usize, lit: Lit) -> usize {
    if lit.is_negative() {
        chunk[at] = b'-';
        at += 1;
    }
    let mut n = lit.var().index() as u32 + 1;
    let end = at + n.ilog10() as usize + 1;
    let mut i = end;
    loop {
        i -= 1;
        chunk[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    chunk[end] = b' ';
    end + 1
}

/// Parses a DIMACS CNF file.
///
/// Comment lines (`c …`) are skipped; the `p cnf <vars> <clauses>` header is
/// required before any clause. Extra declared variables are allocated even
/// if unused.
///
/// # Errors
///
/// Returns [`DimacsError::Parse`] on malformed input and
/// [`DimacsError::Io`] on reader failure.
pub fn parse(r: impl BufRead) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::new();
    let mut declared_vars: Option<usize> = None;
    let mut declared_clauses: Option<usize> = None;
    let mut current: Vec<Lit> = Vec::new();

    for line in r.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('p') {
            if declared_vars.is_some() {
                return Err(DimacsError::Parse("duplicate problem line".into()));
            }
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 3 || fields[0] != "cnf" {
                return Err(DimacsError::Parse(format!("bad problem line: {trimmed:?}")));
            }
            let nv: usize = fields[1]
                .parse()
                .map_err(|_| DimacsError::Parse(format!("bad var count {:?}", fields[1])))?;
            let nc: usize = fields[2]
                .parse()
                .map_err(|_| DimacsError::Parse(format!("bad clause count {:?}", fields[2])))?;
            cnf.new_vars(nv);
            declared_vars = Some(nv);
            declared_clauses = Some(nc);
            continue;
        }
        let Some(nv) = declared_vars else {
            return Err(DimacsError::Parse("clause before problem line".into()));
        };
        for tok in trimmed.split_whitespace() {
            let val: i64 = tok
                .parse()
                .map_err(|_| DimacsError::Parse(format!("bad literal {tok:?}")))?;
            if val == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                if val.unsigned_abs() as usize > nv {
                    return Err(DimacsError::Parse(format!(
                        "literal {val} exceeds declared variable count {nv}"
                    )));
                }
                current.push(Lit::from_dimacs(val));
            }
        }
    }
    if !current.is_empty() {
        return Err(DimacsError::Parse(
            "unterminated clause at end of file".into(),
        ));
    }
    if let Some(nc) = declared_clauses {
        if cnf.num_clauses() != nc {
            return Err(DimacsError::Parse(format!(
                "declared {nc} clauses but found {}",
                cnf.num_clauses()
            )));
        }
    }
    Ok(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use crate::types::Var;

    fn roundtrip(cnf: &Cnf) -> Cnf {
        let mut buf = Vec::new();
        write(cnf, &mut buf).unwrap();
        parse(buf.as_slice()).unwrap()
    }

    #[test]
    fn largest_variable_index_fills_the_token_allowance() {
        // No formula with 2^31 variables fits a test, so the token writer
        // is driven directly at the top of the index range.
        let largest = Var::new(u32::MAX as usize / 2 - 1);
        for lit in [largest.negative(), largest.positive()] {
            let mut chunk = [0u8; MAX_TOKEN_BYTES];
            let end = put_literal(&mut chunk, 0, lit);
            let expect = format!("{} ", lit.to_dimacs());
            assert_eq!(&chunk[..end], expect.as_bytes());
        }
    }

    #[test]
    fn round_trip_preserves_clauses() {
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(4);
        cnf.add_clause([vars[0].positive(), vars[1].negative()]);
        cnf.add_clause([vars[2].positive(), vars[3].positive(), vars[0].negative()]);
        let back = roundtrip(&cnf);
        assert_eq!(back.num_vars(), 4);
        assert!(back.clauses().eq(cnf.clauses()));
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 2 2\nc another\n1 2 0\n-1 0\n";
        let cnf = parse(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
        let result = Solver::from_cnf(&cnf).solve();
        let m = result.model().unwrap();
        assert!(!m.value(Var::new(0)));
        assert!(m.value(Var::new(1)));
    }

    #[test]
    fn multi_clause_single_line() {
        let text = "p cnf 2 2\n1 0 -2 0\n";
        let cnf = parse(text.as_bytes()).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(
            parse("1 2 0\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
        assert!(matches!(
            parse("p cnf x 1\n1 0\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
        assert!(matches!(
            parse("p cnf 1 1\n2 0\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
        assert!(matches!(
            parse("p cnf 1 1\n1\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
        assert!(matches!(
            parse("p cnf 1 2\n1 0\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
        assert!(matches!(
            parse("p cnf 1 1\np cnf 1 1\n".as_bytes()),
            Err(DimacsError::Parse(_))
        ));
    }

    #[test]
    fn empty_clause_round_trips() {
        let mut cnf = Cnf::new();
        cnf.new_var();
        cnf.add_clause([]);
        let back = roundtrip(&cnf);
        assert_eq!(back.num_clauses(), 1);
        assert!(back.clauses().next().unwrap().is_empty());
        assert!(Solver::from_cnf(&back).solve().is_unsat());
    }
}

//! AIGER file format support (ASCII `aag` and binary `aig`).
//!
//! Combinational networks only: latch counts other than zero are rejected.
//! On write, variables are renumbered into the canonical AIGER layout
//! (inputs first, then AND gates in topological order).

use std::fmt;
use std::io::{self, Read, Write};

use crate::miter::{add_xor_pos, check_interface};
use crate::{Aig, BuildMiterError, Lit, Node};

/// Error reading an AIGER file.
#[derive(Debug)]
pub enum ParseAigerError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header line is malformed.
    BadHeader(String),
    /// The file contains latches, which are not supported.
    HasLatches(usize),
    /// A literal or line is malformed.
    BadLine {
        /// 1-based line number (0 for binary section).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The binary delta encoding is invalid or truncated.
    BadBinary(String),
    /// A variable is defined more than once (as an input or AND lhs).
    DefinedTwice(u32),
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAigerError::Io(e) => write!(f, "i/o error: {e}"),
            ParseAigerError::BadHeader(h) => write!(f, "malformed AIGER header: {h:?}"),
            ParseAigerError::HasLatches(n) => {
                write!(f, "sequential AIGER not supported ({n} latches)")
            }
            ParseAigerError::BadLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseAigerError::BadBinary(m) => write!(f, "bad binary AND section: {m}"),
            ParseAigerError::DefinedTwice(v) => write!(f, "variable {v} is defined twice"),
        }
    }
}

impl std::error::Error for ParseAigerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseAigerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseAigerError {
    fn from(e: io::Error) -> Self {
        ParseAigerError::Io(e)
    }
}

struct Header {
    m: u32,
    i: u32,
    o: u32,
    a: u32,
    binary: bool,
}

fn parse_header(line: &str) -> Result<Header, ParseAigerError> {
    let mut it = line.split_whitespace();
    let tag = it
        .next()
        .ok_or_else(|| ParseAigerError::BadHeader(line.into()))?;
    let binary = match tag {
        "aag" => false,
        "aig" => true,
        _ => return Err(ParseAigerError::BadHeader(line.into())),
    };
    let mut nums = [0u32; 5];
    for slot in nums.iter_mut() {
        *slot = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseAigerError::BadHeader(line.into()))?;
    }
    if nums[2] != 0 {
        return Err(ParseAigerError::HasLatches(nums[2] as usize));
    }
    let [m, i, _, o, a] = nums;
    // Every input and AND defines its own variable, all of them at most
    // M; the binary format numbers them 1..=I+A with nothing left over.
    // Literal 2M+1 must fit the 32-bit literal codes.
    let defined = u64::from(i) + u64::from(a);
    if defined > u64::from(m) || (binary && defined != u64::from(m)) || m > u32::MAX >> 1 {
        return Err(ParseAigerError::BadHeader(line.into()));
    }
    Ok(Header { m, i, o, a, binary })
}

/// Reads an AIGER network (ASCII or binary, auto-detected from the header).
///
/// Malformed input of any kind is an error, never a panic, and memory is
/// sized from the body actually read, not from the header's counts (a
/// binary file's inputs, which have no body, excepted). ASCII definitions
/// may come in any order; a file whose gates already follow their fanins
/// keeps its order.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on I/O failure or malformed input, including
/// files with latches.
pub fn read_aiger<R: Read>(reader: R) -> Result<Aig, ParseAigerError> {
    let body = Body::read(reader)?;
    let mut aig = Aig::with_capacity(1 + body.num_vars());
    let pis = aig.add_inputs(body.inputs.len());
    for po in body.build_into(&mut aig, &pis) {
        aig.add_po(po);
    }
    Ok(aig)
}

/// Error reading two AIGER files into one miter with [`read_miter`].
#[derive(Debug)]
pub enum ReadMiterError {
    /// The left file is unreadable or malformed.
    Left(ParseAigerError),
    /// The right file is unreadable or malformed.
    Right(ParseAigerError),
    /// Both files parse, but their PI or PO counts differ.
    Interface(BuildMiterError),
}

impl fmt::Display for ReadMiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadMiterError::Left(e) => write!(f, "left: {e}"),
            ReadMiterError::Right(e) => write!(f, "right: {e}"),
            ReadMiterError::Interface(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadMiterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadMiterError::Left(e) | ReadMiterError::Right(e) => Some(e),
            ReadMiterError::Interface(e) => Some(e),
        }
    }
}

/// Reads two AIGER networks straight into their miter: the same network,
/// node for node, as [`miter`](crate::miter) of the two [`read_aiger`]
/// results, without building either side on its own.
///
/// Both bodies are decoded first (left, then right, so a malformed file
/// is reported before an interface mismatch, as the two-step path does).
/// Then one AIG is sized from the decoded bodies. The shared PIs come
/// first, then the left gates and the right gates, each strashed against
/// everything before it, then one XOR per PO pair. At the peak the
/// process holds the two decoded bodies (12 bytes per AND) and the miter,
/// not three strashed networks.
///
/// # Errors
///
/// [`ReadMiterError::Left`] or [`ReadMiterError::Right`] for the first
/// file that is unreadable or malformed, [`ReadMiterError::Interface`] if
/// their PI or PO counts differ.
///
/// ```
/// use parsweep_aig::{is_proved, read_miter};
/// // The AND of two inputs, once as written and once with its fanins swapped.
/// let left = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
/// let right = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
/// let m = read_miter(left.as_bytes(), right.as_bytes()).unwrap();
/// assert_eq!((m.num_pis(), m.num_ands(), m.num_pos()), (2, 1, 1));
/// assert!(is_proved(&m));
/// ```
pub fn read_miter<L: Read, R: Read>(left: L, right: R) -> Result<Aig, ReadMiterError> {
    let left = Body::read(left).map_err(ReadMiterError::Left)?;
    let right = Body::read(right).map_err(ReadMiterError::Right)?;
    check_interface(
        (left.inputs.len(), left.pos.len()),
        (right.inputs.len(), right.pos.len()),
    )
    .map_err(ReadMiterError::Interface)?;
    let xor_gates = 3 * left.pos.len();
    let mut m = Aig::with_capacity(1 + left.num_vars() + right.ands.len() + xor_gates);
    let pis = m.add_inputs(left.inputs.len());
    let pos_l = left.build_into(&mut m, &pis);
    drop(left);
    let pos_r = right.build_into(&mut m, &pis);
    add_xor_pos(&mut m, &pos_l, &pos_r);
    Ok(m)
}

/// A decoded AIGER body. Its variables are ranked densely: `1..=n` are
/// the `n` defined ones, 0 the constant and `n + 1` any undefined one. Its
/// AND definitions are ordered so that every fanin precedes its gate, and
/// every literal is defined, so building it cannot fail.
struct Body {
    /// Rank of each input, in file order.
    inputs: Vec<u32>,
    /// `(lhs rank, rhs0, rhs1)`, the right-hand literals over ranks.
    ands: Vec<(u32, u32, u32)>,
    /// Output literals over ranks.
    pos: Vec<u32>,
}

impl Body {
    /// Reads a whole file and decodes it.
    fn read<R: Read>(mut reader: R) -> Result<Body, ParseAigerError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let mut cursor = Cursor {
            bytes: &bytes,
            at: 0,
        };
        let header = parse_header(cursor.line()?.unwrap_or("").trim_end())?;
        let (inputs, ands, pos) = if header.binary {
            decode_binary(cursor, &header)?
        } else {
            decode_ascii(cursor, &header)?
        };
        Body::new(inputs, ands, pos)
    }

    /// Puts the definitions of a ranked body in order and checks that
    /// every output is defined.
    fn new(
        inputs: Vec<u32>,
        ands: Vec<(u32, u32, u32)>,
        pos: Vec<u32>,
    ) -> Result<Body, ParseAigerError> {
        let n = inputs.len() + ands.len();
        let ands = order_ands(n, &inputs, ands)?;
        if let Some(code) = pos.iter().find(|&&code| code >> 1 > n as u32) {
            return Err(ParseAigerError::BadLine {
                line: 0,
                message: format!("output references undefined literal {code}"),
            });
        }
        Ok(Body { inputs, ands, pos })
    }

    /// The number of defined variables.
    fn num_vars(&self) -> usize {
        self.inputs.len() + self.ands.len()
    }

    /// Strashes the body into `aig`, its inputs driven by `pis`, and
    /// returns its output literals in `aig`.
    fn build_into(&self, aig: &mut Aig, pis: &[Lit]) -> Vec<Lit> {
        let mut map = vec![Lit::FALSE; self.num_vars() + 1];
        for (&v, &pi) in self.inputs.iter().zip(pis) {
            map[v as usize] = pi;
        }
        let lit = |map: &[Lit], code: u32| map[code as usize >> 1].xor(code & 1 == 1);
        for &(lhs, rhs0, rhs1) in &self.ands {
            let (a, b) = (lit(&map, rhs0), lit(&map, rhs1));
            map[lhs as usize] = aig.and(a, b);
        }
        self.pos.iter().map(|&code| lit(&map, code)).collect()
    }
}

/// Puts ranked AND definitions in an order where every fanin precedes its
/// gate, in time linear in the body. Definitions already in order keep
/// it; from the first gate that is not, each gate still open is placed
/// after its fanins' definitions, depth first. A cycle or an undefined
/// fanin is an error.
fn order_ands(
    n: usize,
    inputs: &[u32],
    ands: Vec<(u32, u32, u32)>,
) -> Result<Vec<(u32, u32, u32)>, ParseAigerError> {
    const PENDING: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    const UNDEFINED: u8 = 3;
    let mut state = vec![PENDING; n + 2];
    state[0] = DONE;
    state[n + 1] = UNDEFINED;
    for &v in inputs {
        state[v as usize] = DONE;
    }
    let fanins = |(_, rhs0, rhs1): (u32, u32, u32)| [rhs0 as usize >> 1, rhs1 as usize >> 1];
    let Some(start) = ands.iter().position(|&d| {
        let ready = fanins(d).iter().all(|&f| state[f] == DONE);
        if ready {
            state[d.0 as usize] = DONE;
        }
        !ready
    }) else {
        return Ok(ands);
    };
    let mut def = vec![u32::MAX; n + 1];
    for (k, d) in ands.iter().enumerate() {
        def[d.0 as usize] = k as u32;
    }
    let mut ordered = Vec::with_capacity(ands.len());
    ordered.extend_from_slice(&ands[..start]);
    let mut stack: Vec<u32> = Vec::new();
    for &(root, _, _) in &ands[start..] {
        if state[root as usize] == DONE {
            continue;
        }
        state[root as usize] = OPEN;
        stack.push(root);
        while let Some(&v) = stack.last() {
            let d = ands[def[v as usize] as usize];
            match fanins(d).into_iter().find(|&f| state[f] != DONE) {
                None => {
                    state[v as usize] = DONE;
                    ordered.push(d);
                    stack.pop();
                }
                Some(f) if state[f] == PENDING => {
                    state[f] = OPEN;
                    stack.push(f as u32);
                }
                Some(_) => {
                    return Err(ParseAigerError::BadBinary(
                        "cyclic or undefined AND definitions".into(),
                    ))
                }
            }
        }
    }
    Ok(ordered)
}

/// The bytes of a file being decoded: text lines, then (binary) the
/// delta-encoded AND section.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// The next line without its `\n` or `\r\n`; `None` at the end.
    fn line(&mut self) -> Result<Option<&'a str>, ParseAigerError> {
        let rest = &self.bytes[self.at..];
        if rest.is_empty() {
            return Ok(None);
        }
        let (line, used) = match rest.iter().position(|&b| b == b'\n') {
            Some(k) => (&rest[..k], k + 1),
            None => (rest, rest.len()),
        };
        self.at += used;
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        std::str::from_utf8(line).map(Some).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
            .into()
        })
    }

    /// How many lines are left, counting at most `cap`.
    fn count_lines(&self, cap: usize) -> usize {
        let rest = &self.bytes[self.at..];
        let ends = rest.iter().filter(|&&b| b == b'\n').count();
        let unterminated = usize::from(rest.last().is_some_and(|&b| b != b'\n'));
        (ends + unterminated).min(cap)
    }
}

/// Parses a literal of file line `line`, bounded by the header's `M`.
fn parse_lit_token(tok: &str, line: usize, m: u32) -> Result<u32, ParseAigerError> {
    match tok.parse::<u32>() {
        Ok(code) if code >> 1 <= m => Ok(code),
        Ok(code) => Err(ParseAigerError::BadLine {
            line,
            message: format!("literal {code} exceeds the maximum variable {m}"),
        }),
        Err(_) => Err(ParseAigerError::BadLine {
            line,
            message: format!("bad literal {tok:?}"),
        }),
    }
}

/// Parses a literal that defines a variable (an input or an AND lhs):
/// positive and not constant.
fn parse_def_token(tok: &str, line: usize, m: u32, what: &str) -> Result<u32, ParseAigerError> {
    let code = parse_lit_token(tok, line, m)?;
    if code < 2 || code & 1 == 1 {
        return Err(ParseAigerError::BadLine {
            line,
            message: format!("invalid {what} literal {code}"),
        });
    }
    Ok(code >> 1)
}

/// A parsed body: input variables, `(lhs var, rhs0, rhs1)` definitions
/// and output literals, every variable bounded by the header's `M`.
type Parsed = (Vec<u32>, Vec<(u32, u32, u32)>, Vec<u32>);

fn decode_ascii(mut cursor: Cursor<'_>, h: &Header) -> Result<Parsed, ParseAigerError> {
    let (i, o, a) = (h.i as usize, h.o as usize, h.a as usize);
    // Read no more lines than the header asks for: a symbol table or
    // comment section may follow. The lines are counted before any is
    // parsed, so no table is sized from a count the body does not hold.
    let need = [o, a].into_iter().try_fold(i, |sum, n| sum.checked_add(n));
    let have = cursor.count_lines(need.unwrap_or(usize::MAX));
    if need != Some(have) {
        return Err(ParseAigerError::BadLine {
            line: have + 2,
            message: "unexpected end of file".into(),
        });
    }
    // `line_of(k)` is the 1-based file line of body line k (header is 1).
    let line_of = |k: usize| k + 2;
    let mut next_line = || cursor.line().map(|l| l.unwrap_or_default());
    let mut inputs = Vec::with_capacity(i);
    for k in 0..i {
        inputs.push(parse_def_token(
            next_line()?.trim(),
            line_of(k),
            h.m,
            "input",
        )?);
    }
    let mut pos = Vec::with_capacity(o);
    for k in i..i + o {
        pos.push(parse_lit_token(next_line()?.trim(), line_of(k), h.m)?);
    }
    let mut ands = Vec::with_capacity(a);
    for k in i + o..have {
        let line = next_line()?;
        let mut it = line.split_whitespace();
        let mut next = || {
            it.next().ok_or(ParseAigerError::BadLine {
                line: line_of(k),
                message: "expected three literals".into(),
            })
        };
        let lhs = parse_def_token(next()?, line_of(k), h.m, "AND lhs")?;
        let rhs0 = parse_lit_token(next()?, line_of(k), h.m)?;
        let rhs1 = parse_lit_token(next()?, line_of(k), h.m)?;
        ands.push((lhs, rhs0, rhs1));
    }
    rank(&mut inputs, &mut ands, &mut pos)?;
    Ok((inputs, ands, pos))
}

/// Renumbers an ASCII body's variables densely by rank (`1..=n` the
/// defined ones, `n + 1` any undefined one), so every table is sized from
/// the body, not from `M` (legal ASCII may number its variables
/// sparsely). A binary body is ranked by construction. A variable defined
/// twice is an error.
fn rank(
    inputs: &mut [u32],
    ands: &mut [(u32, u32, u32)],
    pos: &mut [u32],
) -> Result<(), ParseAigerError> {
    let n = inputs.len() + ands.len();
    let mut sorted: Vec<u32> = inputs
        .iter()
        .copied()
        .chain(ands.iter().map(|d| d.0))
        .collect();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(ParseAigerError::DefinedTwice(w[0]));
    }
    // A variable is tried at its own index first: in a densely numbered
    // file it is found there, with no search.
    let rank = |v: u32| match v {
        0 => 0,
        _ if sorted.get(v as usize - 1) == Some(&v) => v,
        _ => sorted
            .binary_search(&v)
            .map_or(n as u32 + 1, |r| r as u32 + 1),
    };
    let lit = |code: u32| (rank(code >> 1) << 1) | (code & 1);
    for v in inputs {
        *v = rank(*v);
    }
    for d in ands {
        *d = (rank(d.0), lit(d.1), lit(d.2));
    }
    for code in pos {
        *code = lit(*code);
    }
    Ok(())
}

fn decode_binary(mut cursor: Cursor<'_>, h: &Header) -> Result<Parsed, ParseAigerError> {
    // Output literals, one per line.
    let mut pos = Vec::new();
    for k in 0..h.o as usize {
        let Some(line) = cursor.line()? else {
            return Err(ParseAigerError::BadLine {
                line: k + 2,
                message: "unexpected end of file in output section".into(),
            });
        };
        pos.push(parse_lit_token(line.trim(), k + 2, h.m)?);
    }
    // Delta-encoded AND section: every AND takes at least two bytes.
    let mut rest = &cursor.bytes[cursor.at..];
    let mut ands = Vec::with_capacity((h.a as usize).min(rest.len() / 2));
    // Binary format: inputs are implicitly variables 1..=I and AND k
    // defines variable I+1+k (at most M, which the header bounds).
    for lhs in (h.i + 1..=h.m).map(|v| v << 1) {
        let delta0 = take_delta(&mut rest)?;
        let delta1 = take_delta(&mut rest)?;
        let rhs0 = lhs
            .checked_sub(delta0)
            .ok_or_else(|| ParseAigerError::BadBinary("delta0 exceeds lhs".into()))?;
        let rhs1 = rhs0
            .checked_sub(delta1)
            .ok_or_else(|| ParseAigerError::BadBinary("delta1 exceeds rhs0".into()))?;
        ands.push((lhs >> 1, rhs0, rhs1));
    }
    Ok(((1..=h.i).collect(), ands, pos))
}

/// Decodes one variable-length delta from the front of `bytes`.
fn take_delta(bytes: &mut &[u8]) -> Result<u32, ParseAigerError> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = bytes
            .split_first()
            .ok_or_else(|| ParseAigerError::BadBinary("truncated delta".into()))?;
        *bytes = rest;
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 35 {
            return Err(ParseAigerError::BadBinary("delta too large".into()));
        }
    }
    u32::try_from(result).map_err(|_| ParseAigerError::BadBinary("delta overflow".into()))
}

/// Computes the canonical AIGER numbering of an [`Aig`]: inputs get
/// variables `1..=I`, AND gates follow in topological order.
fn aiger_numbering(aig: &Aig) -> Vec<u32> {
    let mut number = vec![0u32; aig.num_nodes()];
    let mut next = 1u32;
    for pi in aig.pis() {
        number[pi.index()] = next;
        next += 1;
    }
    for v in aig.and_vars() {
        number[v.index()] = next;
        next += 1;
    }
    number
}

fn lit_code(number: &[u32], lit: Lit) -> u32 {
    (number[lit.var().index()] << 1) | lit.is_complemented() as u32
}

/// Writes an ASCII AIGER (`aag`) file.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_ascii<W: Write>(aig: &Aig, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    let number = aiger_numbering(aig);
    let i = aig.num_pis() as u32;
    let a = aig.num_ands() as u32;
    writeln!(w, "aag {} {} 0 {} {}", i + a, i, aig.num_pos(), a)?;
    for pi in aig.pis() {
        writeln!(w, "{}", number[pi.index()] << 1)?;
    }
    for &po in aig.pos() {
        writeln!(w, "{}", lit_code(&number, po))?;
    }
    for v in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(v) {
            let lhs = number[v.index()] << 1;
            let (c0, c1) = (lit_code(&number, f0), lit_code(&number, f1));
            // AIGER convention: rhs0 >= rhs1.
            let (hi, lo) = if c0 >= c1 { (c0, c1) } else { (c1, c0) };
            writeln!(w, "{lhs} {hi} {lo}")?;
        }
    }
    w.flush()
}

/// Writes a binary AIGER (`aig`) file.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_binary<W: Write>(aig: &Aig, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    let number = aiger_numbering(aig);
    let i = aig.num_pis() as u32;
    let a = aig.num_ands() as u32;
    writeln!(w, "aig {} {} 0 {} {}", i + a, i, aig.num_pos(), a)?;
    for &po in aig.pos() {
        writeln!(w, "{}", lit_code(&number, po))?;
    }
    let write_delta = |w: &mut io::BufWriter<W>, mut d: u32| -> io::Result<()> {
        loop {
            let mut byte = (d & 0x7f) as u8;
            d >>= 7;
            if d != 0 {
                byte |= 0x80;
            }
            w.write_all(&[byte])?;
            if d == 0 {
                return Ok(());
            }
        }
    };
    for v in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(v) {
            let lhs = number[v.index()] << 1;
            let (c0, c1) = (lit_code(&number, f0), lit_code(&number, f1));
            let (hi, lo) = if c0 >= c1 { (c0, c1) } else { (c1, c0) };
            debug_assert!(lhs > hi, "AIG must be topologically ordered");
            write_delta(&mut w, lhs - hi)?;
            write_delta(&mut w, hi - lo)?;
        }
    }
    w.flush()
}

/// Reads an AIGER file from a path (ASCII or binary).
///
/// # Errors
///
/// Returns [`ParseAigerError`] on I/O failure or malformed input.
pub fn read_aiger_file<P: AsRef<std::path::Path>>(path: P) -> Result<Aig, ParseAigerError> {
    read_aiger(std::fs::File::open(path)?)
}

/// Writes an AIGER file to a path; format chosen by extension (`.aag` is
/// ASCII, anything else binary).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_aiger_file<P: AsRef<std::path::Path>>(aig: &Aig, path: P) -> io::Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "aag") {
        write_ascii(aig, file)
    } else {
        write_binary(aig, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn sample() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs(3);
        let f = aig.xor(xs[0], xs[1]);
        let g = aig.mux(xs[2], f, !xs[0]);
        aig.add_po(g);
        aig.add_po(!f);
        aig
    }

    fn equivalent(a: &Aig, b: &Aig) -> bool {
        assert_eq!(a.num_pis(), b.num_pis());
        let n = a.num_pis();
        (0..1u32 << n).all(|v| {
            let bits: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
            a.eval(&bits) == b.eval(&bits)
        })
    }

    #[test]
    fn ascii_roundtrip() {
        let aig = sample();
        let mut buf = Vec::new();
        write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_pos(), aig.num_pos());
        assert!(equivalent(&aig, &back));
    }

    #[test]
    fn binary_roundtrip() {
        let aig = sample();
        let mut buf = Vec::new();
        write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert!(equivalent(&aig, &back));
    }

    #[test]
    fn constant_pos_roundtrip() {
        let mut aig = Aig::new();
        aig.add_inputs(1);
        aig.add_po(Lit::FALSE);
        aig.add_po(Lit::TRUE);
        let mut buf = Vec::new();
        write_ascii(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert_eq!(back.pos(), &[Lit::FALSE, Lit::TRUE]);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        assert!(matches!(
            read_aiger(text.as_bytes()),
            Err(ParseAigerError::HasLatches(1))
        ));
    }

    #[test]
    fn rejects_garbage_header() {
        assert!(matches!(
            read_aiger("bogus 1 2 3".as_bytes()),
            Err(ParseAigerError::BadHeader(_))
        ));
    }

    #[test]
    fn parses_reference_ascii_example() {
        // AND of two inputs, from the AIGER spec.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let aig = read_aiger(text.as_bytes()).unwrap();
        assert_eq!(aig.num_pis(), 2);
        assert_eq!(aig.num_ands(), 1);
        assert_eq!(aig.eval(&[true, true]), vec![true]);
        assert_eq!(aig.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn inverted_output_preserved() {
        let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n";
        let aig = read_aiger(text.as_bytes()).unwrap();
        assert_eq!(aig.eval(&[true, true]), vec![false]);
        assert_eq!(aig.eval(&[false, false]), vec![true]);
    }

    fn rejects(input: &[u8]) {
        let parsed = std::panic::catch_unwind(|| read_aiger(input));
        assert!(
            matches!(parsed, Ok(Err(_))),
            "{:?} must be an error",
            String::from_utf8_lossy(input)
        );
    }

    #[test]
    fn rejects_input_variable_above_m() {
        rejects(b"aag 1 1 0 0 0\n4\n");
    }

    #[test]
    fn rejects_m_below_input_count() {
        rejects(b"aag 0 1 0 0 0\n2\n");
    }

    #[test]
    fn rejects_and_lhs_above_m() {
        rejects(b"aag 1 1 0 1 1\n2\n4\n4 2 2\n");
    }

    #[test]
    fn rejects_binary_and_lhs_above_m() {
        // One AND defining variable 2 of a file whose M is 1.
        rejects(b"aig 1 1 0 1 1\n4\n\x02\x00");
    }

    #[test]
    fn rejects_header_counts_that_overflow() {
        rejects(b"aag 1 4294967295 0 1 0\n");
    }

    fn rejects_as_defined_twice(input: &[u8], var: u32) {
        rejects(input);
        let err = read_aiger(input).unwrap_err();
        assert!(matches!(err, ParseAigerError::DefinedTwice(v) if v == var));
        assert_eq!(err.to_string(), format!("variable {var} is defined twice"));
    }

    #[test]
    fn rejects_and_redefining_an_input() {
        rejects_as_defined_twice(b"aag 2 1 0 1 1\n2\n2\n2 2 2\n", 1);
    }

    #[test]
    fn rejects_input_declared_twice() {
        rejects(b"aag 1 2 0 1 0\n2\n2\n2\n");
        // Room in M for both: still one variable defined twice.
        rejects_as_defined_twice(b"aag 2 2 0 1 0\n2\n2\n2\n", 1);
        rejects_as_defined_twice(b"aag 9 2 0 1 0\n14\n14\n2\n", 7);
    }

    #[test]
    fn rejects_output_literal_above_m() {
        rejects(b"aag 3 2 0 1 1\n2\n4\n8\n6 2 4\n");
    }

    #[test]
    fn sparse_numbering_parses_without_an_m_sized_table() {
        // Variables 2, 4 and 6 of M = 10: legal in ASCII.
        let aig = read_aiger(&b"aag 10 2 0 1 1\n4\n8\n13\n12 4 8\n"[..]).unwrap();
        assert_eq!((aig.num_pis(), aig.num_ands()), (2, 1));
        assert_eq!(aig.eval(&[true, true]), vec![false]);
        assert_eq!(aig.eval(&[true, false]), vec![true]);
        // One input numbered near the top of the literal range: nothing
        // is sized from M.
        let aig = read_aiger(&b"aag 2147483647 1 0 1 0\n4294967294\n4294967295\n"[..]).unwrap();
        assert_eq!(aig.num_pis(), 1);
        assert_eq!(aig.eval(&[false]), vec![true]);
    }

    /// An ASCII chain of `n` ANDs over two inputs, none of which folds:
    /// gate k ANDs gate k-1 (complemented every third step) with one of
    /// the inputs. Its definitions are written last gate first when
    /// `reversed`.
    fn ascii_chain(n: u32, reversed: bool) -> String {
        let mut defs: Vec<String> = (0..n)
            .map(|k| {
                let prev = if k == 0 {
                    2
                } else {
                    (2 * (2 + k)) | u32::from(k % 3 == 0)
                };
                format!("{} {prev} {}", 2 * (3 + k), 4 + k % 2)
            })
            .collect();
        if reversed {
            defs.reverse();
        }
        format!(
            "aag {m} 2 0 1 {n}\n2\n4\n{}\n{}\n",
            2 * (2 + n),
            defs.join("\n"),
            m = 2 + n
        )
    }

    #[test]
    fn reverse_ordered_ascii_reads_in_one_pass_to_the_forward_network() {
        let n = 100_000;
        let forward = read_aiger(ascii_chain(n, false).as_bytes()).unwrap();
        let reverse = read_aiger(ascii_chain(n, true).as_bytes()).unwrap();
        assert_eq!(forward.num_ands(), n as usize);
        assert_eq!(reverse.nodes(), forward.nodes());
        assert_eq!(reverse.pos(), forward.pos());
    }

    #[test]
    fn out_of_order_definitions_follow_their_fanins() {
        // Variable 5 is defined first and needs 4 and 3, which come later
        // in the opposite order.
        let aig = read_aiger(&b"aag 5 2 0 1 3\n2\n4\n10\n10 8 7\n6 2 4\n8 6 3\n"[..]).unwrap();
        aig.check_invariants().unwrap();
        assert_eq!(aig.num_ands(), 3);
        for bits in [[false, false], [true, false], [false, true], [true, true]] {
            let g3 = bits[0] && bits[1];
            let g4 = g3 && !bits[0];
            assert_eq!(aig.eval(&bits), vec![g4 && !g3]);
        }
    }

    #[test]
    fn cyclic_or_undefined_definitions_are_errors() {
        // 3 and 4 need each other; 3 needs the undefined variable 5; a
        // binary AND whose first delta is 0 reads itself.
        for bad in [
            &b"aag 4 2 0 1 2\n2\n4\n6\n6 8 2\n8 6 4\n"[..],
            &b"aag 5 2 0 1 1\n2\n4\n6\n6 10 2\n"[..],
            &b"aig 3 2 0 1 1\n6\n\x00\x01"[..],
        ] {
            let err = read_aiger(bad).unwrap_err();
            assert_eq!(
                err.to_string(),
                "bad binary AND section: cyclic or undefined AND definitions"
            );
        }
    }

    #[test]
    fn read_miter_names_the_side_at_fault() {
        let good = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let wider = "aag 3 3 0 1 0\n2\n4\n6\n6\n";
        let two_pos = "aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\n";
        let truncated = "aag 3 2 0 1 1\n2\n4\n6\n";
        let err = |l: &str, r: &str| read_miter(l.as_bytes(), r.as_bytes()).unwrap_err();
        assert!(matches!(err(truncated, good), ReadMiterError::Left(_)));
        assert!(matches!(err(good, truncated), ReadMiterError::Right(_)));
        // A malformed file is reported before an interface mismatch.
        assert!(matches!(err(wider, truncated), ReadMiterError::Right(_)));
        assert_eq!(
            err(good, wider).to_string(),
            "primary input counts differ: 2 vs 3"
        );
        assert_eq!(
            err(good, two_pos).to_string(),
            "primary output counts differ: 1 vs 2"
        );
        assert_eq!(
            err(good, truncated).to_string(),
            "right: line 5: unexpected end of file"
        );
    }

    #[test]
    fn large_roundtrip_binary() {
        // A bigger random-ish structure to exercise delta encoding widths.
        let mut aig = Aig::new();
        let xs = aig.add_inputs(8);
        let mut acc = xs[0];
        for (i, &x) in xs.iter().enumerate().skip(1) {
            acc = if i % 2 == 0 {
                aig.xor(acc, x)
            } else {
                aig.mux(x, acc, !x)
            };
        }
        aig.add_po(acc);
        let mut buf = Vec::new();
        write_binary(&aig, &mut buf).unwrap();
        let back = read_aiger(&buf[..]).unwrap();
        assert!(equivalent(&aig, &back));
        let _ = Var::new(0);
    }
}

//! OpenCL C kernel-signature parsing.
//!
//! CheCL must decide, for every `clSetKernelArg` byte blob, whether it
//! holds a handle that needs CheCL→vendor translation. The paper solves
//! this by parsing each kernel's parameter list when the program is
//! created (§III-B): parameters with the address-space qualifiers
//! `__global`, `__local`, `__constant`, or of the special types
//! `image2d_t`, `image3d_t`, `sampler_t`, receive handles; everything
//! else is a by-value scalar.
//!
//! The same information drives the vendor drivers' argument resolution
//! (a real driver compiles the source and knows its parameter types),
//! so the parser lives here in `clspec` where both sides can use it.
//!
//! The parser handles comments, preprocessor-free OpenCL C, multiple
//! kernels per translation unit, non-kernel helper functions, and —
//! as the extension the paper leaves to future work — user-defined
//! `struct`s whose members contain `__global` pointers (§IV-D).

use std::collections::BTreeMap;
use std::fmt;

/// Classification of one kernel parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// `__global T*` — receives a `cl_mem` handle.
    GlobalPtr,
    /// `__constant T*` — receives a `cl_mem` handle.
    ConstantPtr,
    /// `__local T*` — receives a local-memory size (NULL pointer).
    LocalPtr,
    /// `image2d_t` — receives a `cl_mem` (image) handle.
    Image2d,
    /// `image3d_t` — receives a `cl_mem` (image) handle.
    Image3d,
    /// `sampler_t` — receives a `cl_sampler` handle.
    Sampler,
    /// A by-value argument of the named type (`float`, `uint`, or a
    /// user-defined struct).
    Scalar(String),
}

impl ParamKind {
    /// `true` if arguments of this kind carry an object handle that an
    /// interposer must translate.
    pub fn is_handle(&self) -> bool {
        matches!(
            self,
            ParamKind::GlobalPtr
                | ParamKind::ConstantPtr
                | ParamKind::Image2d
                | ParamKind::Image3d
                | ParamKind::Sampler
        )
    }
}

/// One parsed kernel parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamInfo {
    /// Parameter name as written in the source.
    pub name: String,
    /// Classification.
    pub kind: ParamKind,
    /// `true` for pointer-to-const parameters (`__global const float*`):
    /// the kernel cannot write through them, which lets the dedup
    /// checkpointer skip re-reading such buffers (§IV-D future work:
    /// "checking if a memory object is modified by a kernel").
    pub is_const: bool,
    /// For pointer parameters, the size in bytes of the pointee element
    /// type (`__global float4*` → 16), when the declared type is a
    /// recognized OpenCL C builtin. `None` for user-defined types —
    /// dirty-range inference must then fall back to whole-buffer.
    pub elem_bytes: Option<u64>,
    /// `true` when body analysis proved every store through this
    /// pointer is indexed by the 1-D global work-item id (or the
    /// constant 0), so an N-item launch writes at most the first
    /// `N * elem_bytes` bytes of the bound buffer. Fan-out kernels
    /// (`out[i*per+j] = …`), indirect indices and any bare use of the
    /// pointer (aliasing) all leave this `false` — dirty tracking then
    /// falls back to whole-buffer.
    pub gid_stride: bool,
}

/// Byte size of a recognized OpenCL C builtin (scalar or vector) type
/// name, e.g. `float` → 4, `uchar4` → 4, `double2` → 16. `None` for
/// anything unrecognized (user-defined structs, images, `half` with
/// exotic suffixes, ...).
pub fn builtin_elem_bytes(ty: &str) -> Option<u64> {
    let split = ty.find(|c: char| c.is_ascii_digit()).unwrap_or(ty.len());
    let (base, lanes) = ty.split_at(split);
    let lanes: u64 = if lanes.is_empty() {
        1
    } else {
        match lanes.parse::<u64>().ok()? {
            n @ (2 | 3 | 4 | 8 | 16) => n,
            _ => return None,
        }
    };
    let scalar = match base {
        "char" | "uchar" | "bool" => 1,
        "short" | "ushort" | "half" => 2,
        "int" | "uint" | "float" => 4,
        "long" | "ulong" | "double" => 8,
        "size_t" | "ptrdiff_t" | "intptr_t" | "uintptr_t" => 8,
        _ => return None,
    };
    Some(scalar * lanes)
}

/// Minimal token for the write-footprint analysis: identifiers (and
/// integer literals) vs. single-character symbols. Multi-character
/// operators (`==`, `+=`) appear as consecutive symbol tokens.
#[derive(Clone, Debug, PartialEq, Eq)]
enum BodyTok {
    Ident(String),
    Sym(char),
}

fn tokenize_body(body: &str) -> Vec<BodyTok> {
    let mut toks = Vec::new();
    let mut it = body.chars().peekable();
    while let Some(&c) = it.peek() {
        if c.is_whitespace() {
            it.next();
        } else if is_ident_char(c) {
            let mut s = String::new();
            while let Some(&c) = it.peek() {
                if is_ident_char(c) {
                    s.push(c);
                    it.next();
                } else {
                    break;
                }
            }
            toks.push(BodyTok::Ident(s));
        } else {
            toks.push(BodyTok::Sym(c));
            it.next();
        }
    }
    toks
}

/// `true` when `toks[at..]` starts with `get_global_id ( 0 )`.
fn is_gid_call(toks: &[BodyTok], at: usize) -> bool {
    matches!(
        (toks.get(at), toks.get(at + 1), toks.get(at + 2), toks.get(at + 3)),
        (
            Some(BodyTok::Ident(f)),
            Some(BodyTok::Sym('(')),
            Some(BodyTok::Ident(dim)),
            Some(BodyTok::Sym(')')),
        ) if f == "get_global_id" && dim == "0"
    )
}

/// `true` when the identifier at `k` is the target of an assignment or
/// increment/decrement (`v = …`, `v += …`, `v++`, `++v`).
fn is_assigned_at(toks: &[BodyTok], k: usize) -> bool {
    // ++v / --v
    if k >= 2 {
        if let (BodyTok::Sym(a), BodyTok::Sym(b)) = (&toks[k - 2], &toks[k - 1]) {
            if (*a == '+' && *b == '+') || (*a == '-' && *b == '-') {
                return true;
            }
        }
    }
    match (toks.get(k + 1), toks.get(k + 2)) {
        // v = … but not v == …
        (Some(BodyTok::Sym('=')), next) => !matches!(next, Some(BodyTok::Sym('='))),
        // v += … / v++ / v <<= … and friends
        (Some(BodyTok::Sym(op)), Some(BodyTok::Sym(eq)))
            if "+-*/%&|^<>".contains(*op) && (*eq == '=' || eq == op) =>
        {
            true
        }
        _ => false,
    }
}

/// Variables that provably hold `get_global_id(0)` for the whole kernel:
/// assigned from it once and never reassigned afterwards.
fn gid_variables(toks: &[BodyTok]) -> Vec<String> {
    let mut candidates: Vec<String> = Vec::new();
    for k in 0..toks.len() {
        if let BodyTok::Ident(v) = &toks[k] {
            // v = get_global_id(0), with a plain (non-compound) `=`.
            if matches!(toks.get(k + 1), Some(BodyTok::Sym('='))) && is_gid_call(toks, k + 2) {
                let compound = k > 0 && matches!(toks[k - 1], BodyTok::Sym(_));
                if !compound && !candidates.contains(v) {
                    candidates.push(v.clone());
                }
            }
        }
    }
    // Drop any candidate that is assigned more than once (loop counters
    // like `for (; i < n; i += stride)` no longer track the gid).
    candidates.retain(|v| {
        let writes = (0..toks.len())
            .filter(|&k| matches!(&toks[k], BodyTok::Ident(x) if x == v) && is_assigned_at(toks, k))
            .count();
        writes == 1
    });
    candidates
}

/// Decide whether every store through pointer parameter `param` in the
/// tokenized body is indexed by the 1-D global id (or the constant 0).
/// Bare (non-subscripted) uses of the pointer disqualify it: the kernel
/// may alias it or pass it to a helper that writes anywhere.
fn gid_stride_writes(toks: &[BodyTok], gid_vars: &[String], param: &str) -> bool {
    let mut k = 0;
    while k < toks.len() {
        if !matches!(&toks[k], BodyTok::Ident(x) if x == param) {
            k += 1;
            continue;
        }
        if !matches!(toks.get(k + 1), Some(BodyTok::Sym('['))) {
            return false; // bare use: possible aliasing
        }
        // Find the matching `]`.
        let mut depth = 1;
        let mut m = k + 2;
        while m < toks.len() && depth > 0 {
            match toks[m] {
                BodyTok::Sym('[') => depth += 1,
                BodyTok::Sym(']') => depth -= 1,
                _ => {}
            }
            m += 1;
        }
        if depth > 0 {
            return false;
        }
        let close = m - 1;
        // Is this subscript a store? `p[i] = …` (not `==`), a compound
        // assignment (`+=`, `<<=`), or `p[i]++`. Anything else —
        // including comparisons like `p[i] <= n` — is a read.
        let t1 = toks.get(close + 1);
        let t2 = toks.get(close + 2);
        let t3 = toks.get(close + 3);
        let is_store = match (t1, t2, t3) {
            (Some(BodyTok::Sym('=')), Some(BodyTok::Sym('=')), _) => false, // ==
            (Some(BodyTok::Sym('=')), _, _) => true,                        // =
            (Some(BodyTok::Sym('+')), Some(BodyTok::Sym('+')), _)
            | (Some(BodyTok::Sym('-')), Some(BodyTok::Sym('-')), _) => true, // ++ / --
            (Some(BodyTok::Sym(op)), Some(BodyTok::Sym('=')), _) if "+-*/%&|^".contains(*op) => {
                true // += and friends
            }
            (Some(BodyTok::Sym('<')), Some(BodyTok::Sym('<')), Some(BodyTok::Sym('=')))
            | (Some(BodyTok::Sym('>')), Some(BodyTok::Sym('>')), Some(BodyTok::Sym('='))) => {
                true // <<= / >>=
            }
            _ => false,
        };
        if is_store {
            let idx = &toks[k + 2..close];
            let ok = match idx {
                [BodyTok::Ident(v)] => v == "0" || gid_vars.iter().any(|g| g == v),
                _ => idx.len() == 4 && is_gid_call(idx, 0),
            };
            if !ok {
                return false;
            }
        }
        k = m;
    }
    true
}

/// One parsed `__kernel` function signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelSig {
    /// Kernel function name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<ParamInfo>,
}

/// Parse failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A `__kernel` declaration was malformed.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed kernel declaration: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Strip `/* */` and `//` comments, preserving everything else
/// (including any non-ASCII text outside comments).
fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            out.push(b' ');
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    // Comment delimiters are ASCII, so removing them cannot break UTF-8
    // sequences; lossy conversion only fires on already-invalid input.
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Split a parameter list at top-level commas (ignores commas inside
/// parentheses or brackets, which OpenCL C parameter lists can contain
/// via array declarators).
fn split_params(list: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    for c in list.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                current.push(c);
            }
            ')' | ']' => {
                depth -= 1;
                current.push(c);
            }
            ',' if depth == 0 => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    let last = current.trim();
    if !last.is_empty() {
        parts.push(last.to_string());
    }
    parts
}

fn classify_param(decl: &str, structs_with_handles: &BTreeMap<String, bool>) -> ParamInfo {
    let tokens: Vec<&str> = decl
        .split(|c: char| !is_ident_char(c) && c != '*')
        .filter(|t| !t.is_empty())
        .collect();
    let has = |kw: &str| tokens.iter().any(|t| t.trim_matches('*') == kw);
    let name = tokens
        .iter()
        .rev()
        .map(|t| t.trim_matches('*'))
        .find(|t| !t.is_empty())
        .unwrap_or("")
        .to_string();

    let is_const = has("const");
    // The pointee type of a pointer declaration, for dirty-range math:
    // the first token (qualifiers aside, `*` stripped) naming a builtin.
    let elem_bytes = tokens
        .iter()
        .map(|t| t.trim_matches('*'))
        .filter(|t| *t != name)
        .find_map(builtin_elem_bytes);
    let kind = if has("__global") || has("global") {
        ParamKind::GlobalPtr
    } else if has("__constant") || has("constant") {
        ParamKind::ConstantPtr
    } else if has("__local") || has("local") {
        ParamKind::LocalPtr
    } else if has("image2d_t") {
        ParamKind::Image2d
    } else if has("image3d_t") {
        ParamKind::Image3d
    } else if has("sampler_t") {
        ParamKind::Sampler
    } else {
        // The declared type is the last identifier before the name
        // (skipping qualifiers like const/unsigned).
        let type_name = tokens
            .iter()
            .map(|t| t.trim_matches('*'))
            .rfind(|t| !t.is_empty() && *t != "const" && *t != name)
            .unwrap_or("int")
            .to_string();
        let _ = structs_with_handles;
        ParamKind::Scalar(type_name)
    };
    let elem_bytes = if kind.is_handle() || kind == ParamKind::LocalPtr {
        elem_bytes
    } else {
        None
    };
    ParamInfo {
        name,
        kind,
        is_const,
        elem_bytes,
        gid_stride: false,
    }
}

/// Scan `typedef struct { ... } Name;` and `struct Name { ... };`
/// definitions, recording whether each struct contains `__global` (or
/// other handle-carrying) members. This is the "OpenCL C code parser …
/// under development to check if each user-defined structure includes
/// OpenCL handles" of §IV-D.
pub fn parse_struct_defs(source: &str) -> BTreeMap<String, bool> {
    let src = strip_comments(source);
    let bytes = src.as_bytes();
    let is_ident_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = BTreeMap::new();
    let mut i = 0;
    while let Some(pos) = src.get(i..).and_then(|s| s.find("struct")) {
        let start = i + pos;
        // Require token boundary (all offsets here are byte offsets; the
        // keyword and identifier characters are ASCII).
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after = start + "struct".len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if !(before_ok && after_ok) {
            i = after;
            continue;
        }
        // Optional tag name, then a brace block.
        let mut j = after;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let tag_start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        let tag = String::from_utf8_lossy(&bytes[tag_start..j]).into_owned();
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'{' {
            i = after;
            continue;
        }
        let body_start = j + 1;
        let mut depth = 1;
        let mut k = body_start;
        while k < bytes.len() && depth > 0 {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let body = String::from_utf8_lossy(&bytes[body_start..k.saturating_sub(1)]);
        let has_handles = body.contains("__global")
            || body.contains("__constant")
            || body.contains("image2d_t")
            || body.contains("image3d_t")
            || body.contains("sampler_t");
        // typedef name follows the closing brace (if any).
        let mut m = k;
        while m < bytes.len() && (bytes[m].is_ascii_whitespace() || bytes[m] == b'*') {
            m += 1;
        }
        let td_start = m;
        while m < bytes.len() && is_ident_byte(bytes[m]) {
            m += 1;
        }
        let typedef_name = String::from_utf8_lossy(&bytes[td_start..m]).into_owned();
        if !typedef_name.is_empty() {
            out.insert(typedef_name, has_handles);
        }
        if !tag.is_empty() {
            out.insert(tag, has_handles);
        }
        i = k;
    }
    out
}

/// Parse all `__kernel` signatures in a translation unit.
pub fn parse_kernel_sigs(source: &str) -> Result<Vec<KernelSig>, ParseError> {
    let src = strip_comments(source);
    let structs = parse_struct_defs(&src);
    let mut sigs = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = src[search_from..].find("__kernel") {
        let at = search_from + rel;
        search_from = at + "__kernel".len();
        // Token boundary check.
        let prev_ok = at == 0
            || !src[..at]
                .chars()
                .next_back()
                .map(is_ident_char)
                .unwrap_or(false);
        if !prev_ok {
            continue;
        }
        let rest = &src[at + "__kernel".len()..];
        // Expect: [attributes] void <name> ( <params> )
        let open = rest
            .find('(')
            .ok_or_else(|| ParseError::Malformed("missing parameter list".into()))?;
        let header = &rest[..open];
        let name = header
            .split(|c: char| !is_ident_char(c))
            .rfind(|t| !t.is_empty())
            .ok_or_else(|| ParseError::Malformed("missing kernel name".into()))?
            .to_string();
        if name == "void" {
            return Err(ParseError::Malformed("kernel without a name".into()));
        }
        // Find matching close paren.
        let mut depth = 0i32;
        let mut close = None;
        for (idx, c) in rest.char_indices().skip(open) {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(idx);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close =
            close.ok_or_else(|| ParseError::Malformed(format!("unbalanced parens in {name}")))?;
        let list = &rest[open + 1..close];
        let mut params: Vec<ParamInfo> = if list.trim().is_empty() || list.trim() == "void" {
            Vec::new()
        } else {
            split_params(list)
                .iter()
                .map(|p| classify_param(p, &structs))
                .collect()
        };
        // Write-footprint analysis over the kernel body (the brace block
        // after the parameter list, if present).
        let after = &rest[close + 1..];
        if let Some(brace) = after.find('{') {
            if after[..brace].trim().is_empty() {
                let mut depth = 0i32;
                let mut end = None;
                for (idx, c) in after.char_indices().skip(brace) {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(idx);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                if let Some(end) = end {
                    let toks = tokenize_body(&after[brace + 1..end]);
                    let gid_vars = gid_variables(&toks);
                    for p in &mut params {
                        p.gid_stride = p.kind == ParamKind::GlobalPtr
                            && !p.is_const
                            && gid_stride_writes(&toks, &gid_vars, &p.name);
                    }
                }
            }
        }
        sigs.push(KernelSig { name, params });
    }
    Ok(sigs)
}

simcore::impl_codec_enum!(ParamKind, "ParamKind tag", {
    0 => GlobalPtr,
    1 => ConstantPtr,
    2 => LocalPtr,
    3 => Image2d,
    4 => Image3d,
    5 => Sampler,
    6 => Scalar(ty),
});
simcore::impl_codec_struct!(ParamInfo {
    name,
    kind,
    is_const,
    elem_bytes,
    gid_stride
});
simcore::impl_codec_struct!(KernelSig { name, params });

/// Convenience: which argument indices of `sig` carry handles.
pub fn handle_arg_indices(sig: &KernelSig) -> Vec<u32> {
    sig.params
        .iter()
        .enumerate()
        .filter(|(_, p)| p.kind.is_handle())
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const VEC_ADD: &str = r#"
__kernel void vec_add(__global const float* a,
                      __global const float* b,
                      __global float* c,
                      const uint n)
{
    int i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
"#;

    #[test]
    fn parses_simple_kernel() {
        let sigs = parse_kernel_sigs(VEC_ADD).unwrap();
        assert_eq!(sigs.len(), 1);
        let s = &sigs[0];
        assert_eq!(s.name, "vec_add");
        assert_eq!(s.params.len(), 4);
        assert_eq!(s.params[0].kind, ParamKind::GlobalPtr);
        assert_eq!(s.params[0].name, "a");
        assert!(s.params[0].is_const, "a is __global const float*");
        assert!(!s.params[2].is_const, "c is written by the kernel");
        assert_eq!(s.params[3].kind, ParamKind::Scalar("uint".into()));
        assert_eq!(s.params[3].name, "n");
        assert_eq!(handle_arg_indices(s), vec![0, 1, 2]);
    }

    #[test]
    fn parses_all_qualifier_kinds() {
        let src = r#"
__kernel void zoo(__global float* g,
                  __constant float* c,
                  __local float* l,
                  image2d_t img2,
                  image3d_t img3,
                  sampler_t smp,
                  float scalar)
{ }
"#;
        let sigs = parse_kernel_sigs(src).unwrap();
        let kinds: Vec<&ParamKind> = sigs[0].params.iter().map(|p| &p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &ParamKind::GlobalPtr,
                &ParamKind::ConstantPtr,
                &ParamKind::LocalPtr,
                &ParamKind::Image2d,
                &ParamKind::Image3d,
                &ParamKind::Sampler,
                &ParamKind::Scalar("float".into()),
            ]
        );
        // __local receives a size, not a handle.
        assert_eq!(handle_arg_indices(&sigs[0]), vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn multiple_kernels_and_helpers() {
        let src = r#"
float helper(float x) { return x * 2.0f; }

__kernel void first(__global float* a) { a[0] = helper(a[0]); }

/* a comment with the word __kernel inside */
__kernel void second(__global float* b, const uint n) { }
"#;
        let sigs = parse_kernel_sigs(src).unwrap();
        let names: Vec<&str> = sigs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn comments_do_not_confuse_parser() {
        let src = r#"
// __kernel void fake(__global float* x);
__kernel void real_one(/* inline */ __global float* y, const int n) { }
"#;
        let sigs = parse_kernel_sigs(src).unwrap();
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].name, "real_one");
        assert_eq!(sigs[0].params.len(), 2);
        assert_eq!(sigs[0].params[0].name, "y");
    }

    #[test]
    fn no_kernels_is_fine() {
        assert!(parse_kernel_sigs("int main() { return 0; }")
            .unwrap()
            .is_empty());
        assert!(parse_kernel_sigs("").unwrap().is_empty());
    }

    #[test]
    fn unqualified_global_keyword_also_matches() {
        // OpenCL allows the qualifiers without leading underscores.
        let src = "__kernel void k(global float* a, local float* b, constant float* c) {}";
        let sigs = parse_kernel_sigs(src).unwrap();
        assert_eq!(sigs[0].params[0].kind, ParamKind::GlobalPtr);
        assert_eq!(sigs[0].params[1].kind, ParamKind::LocalPtr);
        assert_eq!(sigs[0].params[2].kind, ParamKind::ConstantPtr);
    }

    #[test]
    fn struct_defs_with_handles_detected() {
        let src = r#"
typedef struct {
    __global float* data;
    int n;
} BufDesc;

typedef struct {
    float x, y, z;
} Plain;

__kernel void uses(BufDesc d, Plain p, __global float* out) { }
"#;
        let defs = parse_struct_defs(src);
        assert_eq!(defs.get("BufDesc"), Some(&true));
        assert_eq!(defs.get("Plain"), Some(&false));
        let sigs = parse_kernel_sigs(src).unwrap();
        assert_eq!(sigs[0].params[0].kind, ParamKind::Scalar("BufDesc".into()));
        assert_eq!(sigs[0].params[1].kind, ParamKind::Scalar("Plain".into()));
    }

    #[test]
    fn multibyte_source_is_handled() {
        // Regression: byte/char offset mixing used to panic or skip
        // definitions when multibyte characters preceded a struct.
        let src = "\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9}\u{e9} struct A { __global int* p; };";
        assert_eq!(parse_struct_defs(src).get("A"), Some(&true));
        let tail = "\u{e9}".repeat(16) + "struct";
        let _ = parse_struct_defs(&tail); // must not panic
                                          // Non-ASCII comments don't disturb kernel parsing either.
        let k = "// commentaire accentu\u{e9}\n__kernel void k(__global float* a) {}";
        assert_eq!(parse_kernel_sigs(k).unwrap()[0].name, "k");
    }

    #[test]
    fn struct_with_tag_name() {
        let src = "struct Packet { __global int* payload; };";
        let defs = parse_struct_defs(src);
        assert_eq!(defs.get("Packet"), Some(&true));
    }

    #[test]
    fn malformed_kernel_reports_error() {
        assert!(parse_kernel_sigs("__kernel void broken(").is_err());
        assert!(parse_kernel_sigs("__kernel void (int x) {}").is_err());
    }

    #[test]
    fn zero_param_kernels() {
        let sigs = parse_kernel_sigs("__kernel void nothing() {}").unwrap();
        assert!(sigs[0].params.is_empty());
        let sigs = parse_kernel_sigs("__kernel void nothing2(void) {}").unwrap();
        assert!(sigs[0].params.is_empty());
    }

    #[test]
    fn pointer_element_sizes_inferred() {
        let src = r#"
__kernel void sizes(__global float* a,
                    __global const uchar4* b,
                    __global double2* c,
                    __local int* scratch,
                    __global BufDesc* d,
                    const uint n)
{ }
"#;
        let sigs = parse_kernel_sigs(src).unwrap();
        let eb: Vec<Option<u64>> = sigs[0].params.iter().map(|p| p.elem_bytes).collect();
        assert_eq!(
            eb,
            vec![Some(4), Some(4), Some(16), Some(4), None, None],
            "float=4, uchar4=4, double2=16, int=4, user struct and scalar None"
        );
        assert_eq!(builtin_elem_bytes("half8"), Some(16));
        assert_eq!(builtin_elem_bytes("long16"), Some(128));
        assert_eq!(builtin_elem_bytes("float5"), None);
        assert_eq!(builtin_elem_bytes("BufDesc"), None);
    }

    #[test]
    fn gid_stride_write_analysis() {
        let src = r#"
__kernel void mixed(__global const float* a,
                    __global float* unit,
                    __global float* fanout,
                    __global float* swap,
                    __global float* grouped,
                    __global float* strided,
                    __global float* negated,
                    const uint n,
                    const uint per)
{
    int i = get_global_id(0);
    if (i < n) unit[i] = a[i] * 2.0f;
    for (uint j = 0; j < per; ++j) fanout[i * per + j] = a[i];
    uint partner = i ^ 1u;
    if (swap[i] > swap[partner]) { swap[partner] = swap[i]; }
    grouped[get_group_id(0)] += a[i];
    int s = get_global_id(0);
    for (; s < n; s += get_global_size(0)) strided[s] = a[s];
    if (i < n) negated[i] = -a[i];
}
"#;
        let sigs = parse_kernel_sigs(src).unwrap();
        let by_name = |n: &str| sigs[0].params.iter().find(|p| p.name == n).unwrap();
        assert!(
            !by_name("a").gid_stride,
            "const input is never a store target"
        );
        assert!(by_name("unit").gid_stride, "unit[i] = … qualifies");
        assert!(!by_name("fanout").gid_stride, "fanout writes i*per+j");
        assert!(!by_name("swap").gid_stride, "swap writes a non-gid partner");
        assert!(!by_name("grouped").gid_stride, "group-id indexed store");
        assert!(
            !by_name("strided").gid_stride,
            "s is reassigned in the loop"
        );
        assert!(by_name("negated").gid_stride, "`= -x` is still a store");
        // Direct-call indexing and the constant 0 both qualify.
        let direct = parse_kernel_sigs(
            "__kernel void d(__global float* o, __global float* z)\
             { o[get_global_id(0)] = 1.0f; z[0] = 2.0f; }",
        )
        .unwrap();
        assert!(direct[0].params[0].gid_stride);
        assert!(direct[0].params[1].gid_stride);
        // A bare (unsubscripted) use of the pointer disqualifies it.
        let aliased =
            parse_kernel_sigs("__kernel void al(__global float* p) { helper(p); }").unwrap();
        assert!(!aliased[0].params[0].gid_stride);
    }

    #[test]
    fn corpus_style_multiline_declarations() {
        let src = "__kernel void conv(__global const float* src,\n    __global float* dst,\n    __constant float* filter,\n    const uint width)\n{ }";
        let sigs = parse_kernel_sigs(src).unwrap();
        assert_eq!(sigs[0].params.len(), 4);
        assert_eq!(handle_arg_indices(&sigs[0]), vec![0, 1, 2]);
    }
}

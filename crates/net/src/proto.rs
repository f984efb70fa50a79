//! Request/response messages and their payload codecs, for both protocol
//! versions this build speaks.
//!
//! Payloads are little-endian with count-prefixed repeats, parsed through the
//! bounded [`hist_persist::wire::Reader`] — every count is validated against
//! the bytes actually remaining before any `Vec` is sized from it, so
//! decoding hostile payloads is total (typed errors, no panics, no
//! over-allocation). Synopses travel inside `Publish`/`UpdateMerge` (and the
//! `MergedView` answer) as nested `AHISTSYN` containers, reusing the
//! `hist-persist` codec verbatim: the server decodes them through the same
//! validating path a file load uses, which is what makes a published synopsis
//! answer queries bit-identically to the local original.
//!
//! ## Versions
//!
//! * **v3** (current): the `Stats` and `StoreStats` answers append the
//!   self-tuning maintenance counters (merge count, refit count, merged
//!   mass, accumulated merge error). Requests are unchanged from v2; a v2
//!   frame simply omits the counters and decodes them as zero.
//! * **v2**: every query/admin op opens with a *key* section — a
//!   length-prefixed, non-empty UTF-8 tenant/metric name of at most
//!   [`hist_persist::MAX_KEY_BYTES`] bytes — addressing one store of the
//!   server's keyed [`StoreMap`](hist_serve::StoreMap). Four ops are
//!   v2-only: `StoreStats`, `ListKeys`, `MergedView`, `DropKey`.
//! * **v1** (legacy, decode + mirrored answers): the keyless single-store
//!   layout. A v1 frame decodes as the same request addressed at
//!   [`hist_serve::DEFAULT_KEY`], so old clients and a keyed server agree on
//!   which store "the" store is. v2-only ops do not exist in v1: their op
//!   bytes in a v1 frame are unknown ops, and their response kinds refuse to
//!   encode at v1.
//!
//! Every response payload opens with the epoch the answer was computed at
//! (the addressed key's epoch; store-wide answers carry the largest per-key
//! epoch), so a client can order responses across reconnects and publishes.

use hist_persist::wire::{put_f64, put_u64, Reader};
use hist_persist::{CodecError, CodecResult};
use hist_serve::DEFAULT_KEY;

use hist_persist::crc32::crc32;

use crate::frame::{
    seal_message_versioned, split_message, LENGTH_PREFIX_BYTES, NET_MAGIC, PROTOCOL_VERSION,
};

// Request opcodes.
const OP_CDF_BATCH: u8 = 0x01;
const OP_QUANTILE_BATCH: u8 = 0x02;
const OP_MASS_BATCH: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_STORE_STATS: u8 = 0x05;
const OP_LIST_KEYS: u8 = 0x06;
const OP_MERGED_VIEW: u8 = 0x07;
const OP_PUBLISH: u8 = 0x10;
const OP_UPDATE_MERGE: u8 = 0x11;
const OP_DROP_KEY: u8 = 0x12;

// Response opcodes (request op | 0x80, plus the shared admin/error ops).
const OP_CDF_OK: u8 = 0x81;
const OP_QUANTILE_OK: u8 = 0x82;
const OP_MASS_OK: u8 = 0x83;
const OP_STATS_OK: u8 = 0x84;
const OP_STORE_STATS_OK: u8 = 0x85;
const OP_LIST_KEYS_OK: u8 = 0x86;
const OP_MERGED_VIEW_OK: u8 = 0x87;
const OP_UPDATED: u8 = 0x90;
const OP_DROPPED: u8 = 0x91;
const OP_ERROR: u8 = 0xEE;

/// A client request. Keyed ops address one store of the server's
/// [`StoreMap`](hist_serve::StoreMap); protocol v1 frames decode with
/// `key == `[`DEFAULT_KEY`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Normalized cdf at each index, answered from one snapshot of `key`.
    CdfBatch {
        /// Addressed store.
        key: String,
        /// Requested indices.
        xs: Vec<u64>,
    },
    /// Smallest index reaching each cumulative fraction.
    QuantileBatch {
        /// Addressed store.
        key: String,
        /// Requested fractions.
        ps: Vec<f64>,
    },
    /// Estimated mass over each inclusive `(start, end)` index range.
    MassBatch {
        /// Addressed store.
        key: String,
        /// Requested ranges.
        ranges: Vec<(u64, u64)>,
    },
    /// Per-key stats: the key's epoch plus a summary of its synopsis.
    Stats {
        /// Addressed store.
        key: String,
    },
    /// Store-wide summary: key count, served count, total pieces, epoch
    /// range. (v2 only.)
    StoreStats,
    /// Every key, in canonical (ascending) order. (v2 only.)
    ListKeys,
    /// Tree-merge every served key's synopsis into one global view with the
    /// given piece budget. (v2 only.)
    MergedView {
        /// Piece budget of the merged synopsis.
        budget: u64,
    },
    /// Admin: replace `key`'s served synopsis with the shipped `AHISTSYN`
    /// blob (creating the key on first use).
    Publish {
        /// Addressed store.
        key: String,
        /// `AHISTSYN`-encoded synopsis.
        synopsis: Vec<u8>,
    },
    /// Admin: merge the shipped adjacent-chunk synopsis into `key`'s served
    /// one, re-merged down to `budget` pieces.
    UpdateMerge {
        /// Addressed store.
        key: String,
        /// Piece budget of the re-merge.
        budget: u64,
        /// `AHISTSYN`-encoded chunk synopsis.
        synopsis: Vec<u8>,
    },
    /// Admin: evict `key` and its store. (v2 only.)
    DropKey {
        /// Key to evict.
        key: String,
    },
}

/// Summary of one served synopsis, as reported by [`Request::Stats`]: piece
/// count, domain bounds, budget, mass and provenance — all in one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisStats {
    /// Domain size `n` (the synopsis covers indices `0..domain`).
    pub domain: u64,
    /// Number of pieces of the fitted model.
    pub pieces: u64,
    /// Piece budget the estimator was configured with.
    pub target_k: u64,
    /// Raw total mass.
    pub total_mass: f64,
    /// Name of the estimator that produced the synopsis.
    pub estimator: String,
    /// Merges absorbed by this key's store since it was created. (v3+;
    /// decodes as 0 from older frames.)
    pub merges: u64,
    /// Maintenance refits published for this key. (v3+; 0 from older frames.)
    pub refits: u64,
    /// Accumulated merge-error bound (summed per-merge ℓ₂ deltas) since the
    /// last refit. (v3+; 0 from older frames.)
    pub merge_error: f64,
}

/// Store-wide summary of a keyed server, as reported by
/// [`Request::StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreWideStats {
    /// Number of keys present (served or not).
    pub keys: u64,
    /// Number of keys currently serving a synopsis.
    pub served: u64,
    /// Total piece count across all served synopses.
    pub total_pieces: u64,
    /// Smallest per-key epoch (0 if any key never published, or no keys).
    pub min_epoch: u64,
    /// Largest per-key epoch (0 if no keys).
    pub max_epoch: u64,
    /// Merges absorbed across every key. (v3+; decodes as 0 from older
    /// frames.)
    pub merges: u64,
    /// Maintenance refits published across every key. (v3+; 0 from older
    /// frames.)
    pub refits: u64,
    /// Total mass of every merged-in chunk. (v3+; 0 from older frames.)
    pub merged_mass: f64,
    /// Summed accumulated merge-error bounds across keys since their last
    /// refits. (v3+; 0 from older frames.)
    pub merge_error: f64,
}

/// Typed error codes a server stamps on error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame did not decode (truncated payload, hostile count,
    /// trailing bytes, …).
    MalformedFrame,
    /// The request announced a protocol version this server does not speak.
    UnsupportedVersion,
    /// The op byte is not a request this version defines.
    UnknownOp,
    /// The request decoded but a query argument is invalid for the served
    /// synopsis (index out of domain, fraction outside `[0, 1]`, …).
    InvalidQuery,
    /// A query arrived before any synopsis was published.
    EmptyStore,
    /// A `Publish`/`UpdateMerge` payload failed to decode or validate.
    InvalidSynopsis,
    /// The announced frame length exceeds the server's limit.
    FrameTooLarge,
    /// The connection used up its per-connection request budget.
    RequestLimit,
    /// The addressed key is not present in the store map.
    UnknownKey,
    /// The key violates the encoding rules (empty, over the length cap, not
    /// valid UTF-8).
    InvalidKey,
    /// A code this build does not know (from a newer peer).
    Unknown(u8),
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::UnknownOp => 3,
            ErrorCode::InvalidQuery => 4,
            ErrorCode::EmptyStore => 5,
            ErrorCode::InvalidSynopsis => 6,
            ErrorCode::FrameTooLarge => 7,
            ErrorCode::RequestLimit => 8,
            ErrorCode::UnknownKey => 9,
            ErrorCode::InvalidKey => 10,
            ErrorCode::Unknown(raw) => raw,
        }
    }

    /// The oldest protocol version whose peers know this code: the
    /// `UnknownKey`/`InvalidKey` pair shipped with the keyed v2 layout;
    /// everything else is v1-era. [`ErrorCode::Unknown`] reports v1 because
    /// it is a passthrough of a foreign peer's byte, not a code this build
    /// mints — downgrading it would mangle a code we do not understand.
    fn min_version(self) -> u16 {
        match self {
            ErrorCode::UnknownKey | ErrorCode::InvalidKey => 2,
            _ => 1,
        }
    }

    /// The code an error frame may carry when answering at `version`: codes
    /// newer than the mirrored version downgrade to the v1-era
    /// [`ErrorCode::InvalidQuery`], so a v1 client is never handed a byte its
    /// protocol never defined (the human-readable message keeps the detail).
    pub fn for_version(self, version: u16) -> Self {
        if version < self.min_version() {
            ErrorCode::InvalidQuery
        } else {
            self
        }
    }

    /// The code a wire byte names (never fails: unknown bytes are preserved
    /// as [`ErrorCode::Unknown`]).
    pub fn from_u8(raw: u8) -> Self {
        match raw {
            1 => ErrorCode::MalformedFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOp,
            4 => ErrorCode::InvalidQuery,
            5 => ErrorCode::EmptyStore,
            6 => ErrorCode::InvalidSynopsis,
            7 => ErrorCode::FrameTooLarge,
            8 => ErrorCode::RequestLimit,
            9 => ErrorCode::UnknownKey,
            10 => ErrorCode::InvalidKey,
            other => ErrorCode::Unknown(other),
        }
    }
}

/// A server response. Every variant opens with the epoch it was computed at
/// (the addressed key's epoch; store-wide kinds carry the largest per-key
/// epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Cdf values, in request order (raw IEEE-754 bits on the wire).
    CdfBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One cdf value per requested index.
        values: Vec<f64>,
    },
    /// Quantile indices, in request order.
    QuantileBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One index per requested fraction.
        indices: Vec<u64>,
    },
    /// Range masses, in request order.
    MassBatch {
        /// Epoch of the snapshot that answered.
        epoch: u64,
        /// One mass per requested range.
        masses: Vec<f64>,
    },
    /// Per-key statistics.
    Stats {
        /// The addressed key's epoch (0 before its first publish).
        epoch: u64,
        /// Summary of the key's served synopsis, or `None` if it serves
        /// nothing.
        synopsis: Option<SynopsisStats>,
    },
    /// Store-wide statistics. (v2 only.)
    StoreStats {
        /// Largest per-key epoch.
        epoch: u64,
        /// The summary.
        stats: StoreWideStats,
    },
    /// The key listing, in canonical (ascending) order. (v2 only.)
    KeyList {
        /// Largest per-key epoch when the listing was taken.
        epoch: u64,
        /// Every key.
        keys: Vec<String>,
    },
    /// The merged global view. (v2 only.)
    MergedView {
        /// Largest epoch among the contributing snapshots.
        epoch: u64,
        /// Number of keys that contributed a synopsis.
        keys: u64,
        /// The merged synopsis as a nested `AHISTSYN` container.
        synopsis: Vec<u8>,
    },
    /// A `Publish`/`UpdateMerge` landed; the key's store now serves this
    /// epoch.
    Updated {
        /// The new epoch.
        epoch: u64,
    },
    /// A `DropKey` was processed. (v2 only.)
    Dropped {
        /// The dropped key's last epoch (0 if it was absent).
        epoch: u64,
        /// Whether the key existed.
        existed: bool,
    },
    /// Typed rejection. The connection stays usable unless the server also
    /// closed it (framing errors and exhausted request budgets close).
    Error {
        /// Relevant epoch when the error was built (the addressed key's
        /// epoch where one was decoded, otherwise the store-wide maximum).
        epoch: u64,
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The wire opcode of this response kind — the single source the encoder
    /// and the client's mismatch reporting share.
    pub(crate) fn op(&self) -> u8 {
        match self {
            Response::CdfBatch { .. } => OP_CDF_OK,
            Response::QuantileBatch { .. } => OP_QUANTILE_OK,
            Response::MassBatch { .. } => OP_MASS_OK,
            Response::Stats { .. } => OP_STATS_OK,
            Response::StoreStats { .. } => OP_STORE_STATS_OK,
            Response::KeyList { .. } => OP_LIST_KEYS_OK,
            Response::MergedView { .. } => OP_MERGED_VIEW_OK,
            Response::Updated { .. } => OP_UPDATED,
            Response::Dropped { .. } => OP_DROPPED,
            Response::Error { .. } => OP_ERROR,
        }
    }
}

// ---------------------------------------------------------------------------
// Key helpers.
// ---------------------------------------------------------------------------

/// Writes a key section: u64 length prefix + UTF-8 bytes.
fn put_key(out: &mut Vec<u8>, key: &str) {
    put_u64(out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
}

/// Reads and validates a key section: UTF-8, non-empty, within
/// [`hist_persist::MAX_KEY_BYTES`].
fn read_key(reader: &mut Reader<'_>) -> CodecResult<String> {
    let bytes = reader.section("key")?;
    let key = std::str::from_utf8(bytes)
        .map_err(|_| CodecError::InvalidKey { reason: "key is not valid UTF-8" })?;
    hist_persist::validate_key(key)?;
    Ok(key.to_owned())
}

/// The typed error for a request that protocol v1 cannot express.
fn v1_cannot_express() -> CodecError {
    CodecError::UnsupportedVersion { found: 1, supported: PROTOCOL_VERSION }
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Encodes a request into one complete wire message (length prefix included)
/// at the current [`PROTOCOL_VERSION`] — exactly the bytes a v2 client
/// writes to the socket.
pub fn encode_request(request: &Request) -> Vec<u8> {
    encode_request_versioned(PROTOCOL_VERSION, request)
        .expect("the current protocol version encodes every request")
}

/// Encodes a request at an explicit protocol version.
///
/// v1 is keyless single-store: requests addressing any key other than
/// [`DEFAULT_KEY`], and the v2-only ops, return a typed error instead of
/// silently dropping information.
pub fn encode_request_versioned(version: u16, request: &Request) -> CodecResult<Vec<u8>> {
    check_encodable_version(version)?;
    let keyed = version >= 2;
    let key_fits_v1 = |key: &str| {
        if key == DEFAULT_KEY {
            Ok(())
        } else {
            Err(CodecError::InvalidKey { reason: "protocol v1 addresses only the default key" })
        }
    };
    let mut payload = Vec::new();
    let op = match request {
        Request::CdfBatch { key, xs } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            put_u64(&mut payload, xs.len() as u64);
            for &x in xs {
                put_u64(&mut payload, x);
            }
            OP_CDF_BATCH
        }
        Request::QuantileBatch { key, ps } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            put_u64(&mut payload, ps.len() as u64);
            for &p in ps {
                put_f64(&mut payload, p);
            }
            OP_QUANTILE_BATCH
        }
        Request::MassBatch { key, ranges } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            put_u64(&mut payload, ranges.len() as u64);
            for &(start, end) in ranges {
                put_u64(&mut payload, start);
                put_u64(&mut payload, end);
            }
            OP_MASS_BATCH
        }
        Request::Stats { key } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            OP_STATS
        }
        Request::StoreStats => {
            if !keyed {
                return Err(v1_cannot_express());
            }
            OP_STORE_STATS
        }
        Request::ListKeys => {
            if !keyed {
                return Err(v1_cannot_express());
            }
            OP_LIST_KEYS
        }
        Request::MergedView { budget } => {
            if !keyed {
                return Err(v1_cannot_express());
            }
            put_u64(&mut payload, *budget);
            OP_MERGED_VIEW
        }
        Request::Publish { key, synopsis } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            put_u64(&mut payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
            OP_PUBLISH
        }
        Request::UpdateMerge { key, budget, synopsis } => {
            if keyed {
                put_key(&mut payload, key);
            } else {
                key_fits_v1(key)?;
            }
            put_u64(&mut payload, *budget);
            put_u64(&mut payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
            OP_UPDATE_MERGE
        }
        Request::DropKey { key } => {
            if !keyed {
                return Err(v1_cannot_express());
            }
            put_key(&mut payload, key);
            OP_DROP_KEY
        }
    };
    Ok(seal_message_versioned(version, op, &payload))
}

/// Encodes a response into one complete wire message (length prefix
/// included) at the current [`PROTOCOL_VERSION`].
pub fn encode_response(response: &Response) -> Vec<u8> {
    encode_response_versioned(PROTOCOL_VERSION, response)
        .expect("the current protocol version encodes every response")
}

/// Encodes a response at an explicit protocol version — how a server mirrors
/// a v1 request with a v1 answer frame. The v2-only response kinds
/// (`StoreStats`/`KeyList`/`MergedView`/`Dropped`) refuse to encode at v1,
/// and v2-only error codes ([`ErrorCode::UnknownKey`]/[`ErrorCode::InvalidKey`])
/// downgrade to [`ErrorCode::InvalidQuery`] inside a v1 error frame
/// ([`ErrorCode::for_version`]) rather than leaking a byte v1 never defined.
pub fn encode_response_versioned(version: u16, response: &Response) -> CodecResult<Vec<u8>> {
    let mut out = Vec::new();
    encode_response_into(version, response, &mut out)?;
    Ok(out)
}

/// Appends a complete response wire message (length prefix included) onto
/// `out`, building the frame in place: no intermediate payload `Vec`, and no
/// allocation at all once `out` has warmed-up capacity. This is the server's
/// steady-state write path; [`encode_response_versioned`] delegates here, so
/// both emit byte-identical frames by construction.
/// On error `out` is restored to its original length.
pub fn encode_response_into(
    version: u16,
    response: &Response,
    out: &mut Vec<u8>,
) -> CodecResult<()> {
    check_encodable_version(version)?;
    let start = out.len();
    // Placeholder length prefix, patched once the payload size is known.
    out.extend_from_slice(&[0u8; LENGTH_PREFIX_BYTES]);
    out.extend_from_slice(&NET_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(response.op());
    if let Err(err) = write_response_payload(version, response, out) {
        out.truncate(start);
        return Err(err);
    }
    // frame = magic + version + op + payload + the 4-byte CRC trailer below.
    let frame_len = out.len() - start - LENGTH_PREFIX_BYTES + 4;
    out[start..start + LENGTH_PREFIX_BYTES].copy_from_slice(&(frame_len as u32).to_le_bytes());
    let crc = crc32(&out[start + LENGTH_PREFIX_BYTES..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

fn write_response_payload(
    version: u16,
    response: &Response,
    payload: &mut Vec<u8>,
) -> CodecResult<()> {
    match response {
        Response::CdfBatch { epoch, values } => {
            put_u64(payload, *epoch);
            put_u64(payload, values.len() as u64);
            for &v in values {
                put_f64(payload, v);
            }
        }
        Response::QuantileBatch { epoch, indices } => {
            put_u64(payload, *epoch);
            put_u64(payload, indices.len() as u64);
            for &i in indices {
                put_u64(payload, i);
            }
        }
        Response::MassBatch { epoch, masses } => {
            put_u64(payload, *epoch);
            put_u64(payload, masses.len() as u64);
            for &m in masses {
                put_f64(payload, m);
            }
        }
        Response::Stats { epoch, synopsis } => {
            put_u64(payload, *epoch);
            match synopsis {
                None => payload.push(0),
                Some(stats) => {
                    payload.push(1);
                    put_u64(payload, stats.domain);
                    put_u64(payload, stats.pieces);
                    put_u64(payload, stats.target_k);
                    put_f64(payload, stats.total_mass);
                    put_u64(payload, stats.estimator.len() as u64);
                    payload.extend_from_slice(stats.estimator.as_bytes());
                    // The maintenance counters shipped with v3; mirroring an
                    // older request omits them (the decoder defaults to 0).
                    if version >= 3 {
                        put_u64(payload, stats.merges);
                        put_u64(payload, stats.refits);
                        put_f64(payload, stats.merge_error);
                    }
                }
            }
        }
        Response::StoreStats { epoch, stats } => {
            if version < 2 {
                return Err(v1_cannot_express());
            }
            put_u64(payload, *epoch);
            put_u64(payload, stats.keys);
            put_u64(payload, stats.served);
            put_u64(payload, stats.total_pieces);
            put_u64(payload, stats.min_epoch);
            put_u64(payload, stats.max_epoch);
            if version >= 3 {
                put_u64(payload, stats.merges);
                put_u64(payload, stats.refits);
                put_f64(payload, stats.merged_mass);
                put_f64(payload, stats.merge_error);
            }
        }
        Response::KeyList { epoch, keys } => {
            if version < 2 {
                return Err(v1_cannot_express());
            }
            put_u64(payload, *epoch);
            put_u64(payload, keys.len() as u64);
            for key in keys {
                put_key(payload, key);
            }
        }
        Response::MergedView { epoch, keys, synopsis } => {
            if version < 2 {
                return Err(v1_cannot_express());
            }
            put_u64(payload, *epoch);
            put_u64(payload, *keys);
            put_u64(payload, synopsis.len() as u64);
            payload.extend_from_slice(synopsis);
        }
        Response::Updated { epoch } => {
            put_u64(payload, *epoch);
        }
        Response::Dropped { epoch, existed } => {
            if version < 2 {
                return Err(v1_cannot_express());
            }
            put_u64(payload, *epoch);
            payload.push(u8::from(*existed));
        }
        Response::Error { epoch, code, message } => {
            put_u64(payload, *epoch);
            // Mirroring a v1 request must not leak a v2-only code byte into
            // the v1 frame — old clients have no decoding for it.
            payload.push(code.for_version(version).to_u8());
            put_u64(payload, message.len() as u64);
            payload.extend_from_slice(message.as_bytes());
        }
    };
    Ok(())
}

/// A version this build can *write*: same range it reads.
fn check_encodable_version(version: u16) -> CodecResult<()> {
    if !(crate::frame::MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion { found: version, supported: PROTOCOL_VERSION });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Decodes a request from a verified frame's announced version, op byte and
/// payload (the shape [`crate::frame::check_envelope`] returns). v1 payloads
/// decode keyless and address [`DEFAULT_KEY`]; v2-only op bytes inside a v1
/// frame are unknown ops.
pub fn decode_request_frame(version: u16, op: u8, payload: &[u8]) -> CodecResult<Request> {
    let keyed = version >= 2;
    let mut reader = Reader::new(payload);
    let key_for = |reader: &mut Reader<'_>| -> CodecResult<String> {
        if keyed {
            read_key(reader)
        } else {
            Ok(DEFAULT_KEY.to_owned())
        }
    };
    let request = match op {
        OP_CDF_BATCH => {
            let key = key_for(&mut reader)?;
            let count = reader.count("cdf indices", 8)?;
            let mut xs = Vec::with_capacity(count);
            for _ in 0..count {
                xs.push(reader.u64()?);
            }
            Request::CdfBatch { key, xs }
        }
        OP_QUANTILE_BATCH => {
            let key = key_for(&mut reader)?;
            let count = reader.count("quantile fractions", 8)?;
            let mut ps = Vec::with_capacity(count);
            for _ in 0..count {
                ps.push(reader.f64()?);
            }
            Request::QuantileBatch { key, ps }
        }
        OP_MASS_BATCH => {
            let key = key_for(&mut reader)?;
            let count = reader.count("mass ranges", 16)?;
            let mut ranges = Vec::with_capacity(count);
            for _ in 0..count {
                let start = reader.u64()?;
                let end = reader.u64()?;
                ranges.push((start, end));
            }
            Request::MassBatch { key, ranges }
        }
        OP_STATS => Request::Stats { key: key_for(&mut reader)? },
        OP_STORE_STATS if keyed => Request::StoreStats,
        OP_LIST_KEYS if keyed => Request::ListKeys,
        OP_MERGED_VIEW if keyed => Request::MergedView { budget: reader.u64()? },
        OP_PUBLISH => {
            let key = key_for(&mut reader)?;
            Request::Publish { key, synopsis: reader.section("synopsis blob")?.to_vec() }
        }
        OP_UPDATE_MERGE => {
            let key = key_for(&mut reader)?;
            let budget = reader.u64()?;
            let synopsis = reader.section("synopsis blob")?.to_vec();
            Request::UpdateMerge { key, budget, synopsis }
        }
        OP_DROP_KEY if keyed => Request::DropKey { key: read_key(&mut reader)? },
        found => return Err(CodecError::InvalidTag { what: "request op", found }),
    };
    reader.finish()?;
    Ok(request)
}

/// Decodes a response from a verified frame's announced version, op byte and
/// payload. The v2-only response ops inside a v1 frame are unknown ops.
pub fn decode_response_frame(version: u16, op: u8, payload: &[u8]) -> CodecResult<Response> {
    let keyed = version >= 2;
    // The op is validated before the payload is touched, so an unknown op is
    // reported as such rather than as a truncation further in.
    let known =
        matches!(op, OP_CDF_OK | OP_QUANTILE_OK | OP_MASS_OK | OP_STATS_OK | OP_UPDATED | OP_ERROR)
            || (keyed
                && matches!(
                    op,
                    OP_STORE_STATS_OK | OP_LIST_KEYS_OK | OP_MERGED_VIEW_OK | OP_DROPPED
                ));
    if !known {
        return Err(CodecError::InvalidTag { what: "response op", found: op });
    }
    let mut reader = Reader::new(payload);
    let epoch = reader.u64()?;
    let response = match op {
        OP_CDF_OK => {
            let count = reader.count("cdf values", 8)?;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(reader.f64()?);
            }
            Response::CdfBatch { epoch, values }
        }
        OP_QUANTILE_OK => {
            let count = reader.count("quantile indices", 8)?;
            let mut indices = Vec::with_capacity(count);
            for _ in 0..count {
                indices.push(reader.u64()?);
            }
            Response::QuantileBatch { epoch, indices }
        }
        OP_MASS_OK => {
            let count = reader.count("mass values", 8)?;
            let mut masses = Vec::with_capacity(count);
            for _ in 0..count {
                masses.push(reader.f64()?);
            }
            Response::MassBatch { epoch, masses }
        }
        OP_STATS_OK => {
            let synopsis = match reader.u8()? {
                0 => None,
                1 => {
                    let domain = reader.u64()?;
                    let pieces = reader.u64()?;
                    let target_k = reader.u64()?;
                    let total_mass = reader.f64()?;
                    let name = reader.section("estimator name")?;
                    let estimator =
                        std::str::from_utf8(name).map_err(|_| CodecError::NonUtf8Name)?.to_string();
                    let (merges, refits, merge_error) = if version >= 3 {
                        (reader.u64()?, reader.u64()?, reader.f64()?)
                    } else {
                        (0, 0, 0.0)
                    };
                    Some(SynopsisStats {
                        domain,
                        pieces,
                        target_k,
                        total_mass,
                        estimator,
                        merges,
                        refits,
                        merge_error,
                    })
                }
                found => {
                    return Err(CodecError::InvalidTag { what: "stats synopsis presence", found })
                }
            };
            Response::Stats { epoch, synopsis }
        }
        OP_STORE_STATS_OK => {
            let mut stats = StoreWideStats {
                keys: reader.u64()?,
                served: reader.u64()?,
                total_pieces: reader.u64()?,
                min_epoch: reader.u64()?,
                max_epoch: reader.u64()?,
                merges: 0,
                refits: 0,
                merged_mass: 0.0,
                merge_error: 0.0,
            };
            if version >= 3 {
                stats.merges = reader.u64()?;
                stats.refits = reader.u64()?;
                stats.merged_mass = reader.f64()?;
                stats.merge_error = reader.f64()?;
            }
            Response::StoreStats { epoch, stats }
        }
        OP_LIST_KEYS_OK => {
            // Smallest possible key section: 8-byte length + 1 byte.
            let count = reader.count("keys", 9)?;
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(read_key(&mut reader)?);
            }
            Response::KeyList { epoch, keys }
        }
        OP_MERGED_VIEW_OK => {
            let keys = reader.u64()?;
            let synopsis = reader.section("merged synopsis blob")?.to_vec();
            Response::MergedView { epoch, keys, synopsis }
        }
        OP_UPDATED => Response::Updated { epoch },
        OP_DROPPED => {
            let existed = match reader.u8()? {
                0 => false,
                1 => true,
                found => return Err(CodecError::InvalidTag { what: "dropped flag", found }),
            };
            Response::Dropped { epoch, existed }
        }
        OP_ERROR => {
            let code = ErrorCode::from_u8(reader.u8()?);
            // Lossy on purpose: the message is display-only detail from the
            // peer, and a mangled byte must not turn a typed error frame
            // into an undecodable one.
            let message = String::from_utf8_lossy(reader.section("error message")?).into_owned();
            Response::Error { epoch, code, message }
        }
        _ => unreachable!("op membership checked above"),
    };
    reader.finish()?;
    Ok(response)
}

/// Decodes a complete wire message (length prefix included) as a request,
/// honouring the version its envelope announces.
pub fn decode_request(message: &[u8]) -> CodecResult<Request> {
    let (version, op, payload) = split_message(message)?;
    decode_request_frame(version, op, payload)
}

/// Decodes a complete wire message (length prefix included) as a response,
/// honouring the version its envelope announces.
pub fn decode_response(message: &[u8]) -> CodecResult<Response> {
    let (version, op, payload) = split_message(message)?;
    decode_response_frame(version, op, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::seal_message;

    fn round_trip_request(request: Request) {
        let decoded = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = decode_response(&encode_response(&response)).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn every_request_kind_round_trips() {
        round_trip_request(Request::CdfBatch { key: "t".into(), xs: vec![] });
        round_trip_request(Request::CdfBatch { key: "api/login".into(), xs: vec![0, 7, u64::MAX] });
        round_trip_request(Request::QuantileBatch { key: "q".into(), ps: vec![0.0, 0.5, 1.0] });
        round_trip_request(Request::MassBatch { key: "m".into(), ranges: vec![(0, 0), (3, 99)] });
        round_trip_request(Request::Stats { key: DEFAULT_KEY.into() });
        round_trip_request(Request::StoreStats);
        round_trip_request(Request::ListKeys);
        round_trip_request(Request::MergedView { budget: 12 });
        round_trip_request(Request::Publish {
            key: "p".into(),
            synopsis: b"AHISTSYN-ish bytes".to_vec(),
        });
        round_trip_request(Request::UpdateMerge {
            key: "u".into(),
            budget: 11,
            synopsis: vec![1, 2, 3],
        });
        round_trip_request(Request::DropKey { key: "gone".into() });
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip_response(Response::CdfBatch { epoch: 3, values: vec![0.25, 1.0] });
        round_trip_response(Response::QuantileBatch { epoch: 4, indices: vec![0, 99] });
        round_trip_response(Response::MassBatch { epoch: 5, masses: vec![-1.5, 0.0] });
        round_trip_response(Response::Stats { epoch: 0, synopsis: None });
        round_trip_response(Response::Stats {
            epoch: 9,
            synopsis: Some(SynopsisStats {
                domain: 256,
                pieces: 13,
                target_k: 5,
                total_mass: 960.0,
                estimator: "merging".into(),
                merges: 41,
                refits: 3,
                merge_error: 0.625,
            }),
        });
        round_trip_response(Response::StoreStats {
            epoch: 17,
            stats: StoreWideStats {
                keys: 100_000,
                served: 99_999,
                total_pieces: 1_234_567,
                min_epoch: 0,
                max_epoch: 17,
                merges: 4_242,
                refits: 17,
                merged_mass: 1e9,
                merge_error: 123.5,
            },
        });
        round_trip_response(Response::KeyList {
            epoch: 2,
            keys: vec!["a".into(), "b".into(), "c".into()],
        });
        round_trip_response(Response::KeyList { epoch: 0, keys: vec![] });
        round_trip_response(Response::MergedView {
            epoch: 8,
            keys: 3,
            synopsis: b"AHISTSYN-ish".to_vec(),
        });
        round_trip_response(Response::Updated { epoch: 42 });
        round_trip_response(Response::Dropped { epoch: 4, existed: true });
        round_trip_response(Response::Dropped { epoch: 0, existed: false });
        round_trip_response(Response::Error {
            epoch: 7,
            code: ErrorCode::InvalidQuery,
            message: "index 900 out of domain 256".into(),
        });
    }

    #[test]
    fn v1_round_trips_keyless_default_requests() {
        let requests = [
            Request::CdfBatch { key: DEFAULT_KEY.into(), xs: vec![1, 2] },
            Request::QuantileBatch { key: DEFAULT_KEY.into(), ps: vec![0.5] },
            Request::MassBatch { key: DEFAULT_KEY.into(), ranges: vec![(0, 9)] },
            Request::Stats { key: DEFAULT_KEY.into() },
            Request::Publish { key: DEFAULT_KEY.into(), synopsis: vec![1] },
            Request::UpdateMerge { key: DEFAULT_KEY.into(), budget: 4, synopsis: vec![2] },
        ];
        for request in requests {
            let v1 = encode_request_versioned(1, &request).unwrap();
            let decoded = decode_request(&v1).unwrap();
            assert_eq!(decoded, request, "v1 frames decode back with the default key");
            // And the v1 bytes are strictly shorter than v2 (no key section).
            assert!(v1.len() < encode_request(&request).len());
        }
    }

    #[test]
    fn v1_refuses_keys_and_keyed_ops() {
        let keyed_request = Request::CdfBatch { key: "tenant".into(), xs: vec![1] };
        assert!(matches!(
            encode_request_versioned(1, &keyed_request),
            Err(CodecError::InvalidKey { .. })
        ));
        for request in [Request::StoreStats, Request::ListKeys, Request::MergedView { budget: 4 }] {
            assert!(matches!(
                encode_request_versioned(1, &request),
                Err(CodecError::UnsupportedVersion { found: 1, .. })
            ));
        }
        assert!(matches!(
            encode_request_versioned(1, &Request::DropKey { key: DEFAULT_KEY.into() }),
            Err(CodecError::UnsupportedVersion { found: 1, .. })
        ));
        // The v2-only response kinds refuse v1 too.
        let dropped = Response::Dropped { epoch: 1, existed: true };
        assert!(encode_response_versioned(1, &dropped).is_err());
        // Unknown versions refuse outright.
        assert!(encode_request_versioned(0, &Request::ListKeys).is_err());
        assert!(encode_request_versioned(4, &Request::ListKeys).is_err());
    }

    #[test]
    fn v2_stats_frames_omit_and_zero_the_maintenance_counters() {
        // A v3 build mirroring a v2 peer drops the counters on the wire; the
        // decoder fills zeros, so a v2 exchange round-trips exactly with the
        // maintenance fields blanked.
        let stats = Response::Stats {
            epoch: 9,
            synopsis: Some(SynopsisStats {
                domain: 64,
                pieces: 7,
                target_k: 3,
                total_mass: 128.0,
                estimator: "merging".into(),
                merges: 99,
                refits: 4,
                merge_error: 1.5,
            }),
        };
        let v2 = encode_response_versioned(2, &stats).unwrap();
        let v3 = encode_response_versioned(3, &stats).unwrap();
        assert!(v2.len() < v3.len(), "the v2 frame must omit the counters");
        match decode_response(&v2).unwrap() {
            Response::Stats { synopsis: Some(decoded), .. } => {
                assert_eq!((decoded.merges, decoded.refits, decoded.merge_error), (0, 0, 0.0));
                assert_eq!(decoded.domain, 64);
                assert_eq!(decoded.estimator, "merging");
            }
            other => panic!("wrong response: {other:?}"),
        }
        assert_eq!(decode_response(&v3).unwrap(), stats);

        let wide = Response::StoreStats {
            epoch: 3,
            stats: StoreWideStats {
                keys: 2,
                served: 2,
                total_pieces: 22,
                min_epoch: 1,
                max_epoch: 3,
                merges: 7,
                refits: 1,
                merged_mass: 640.0,
                merge_error: 0.25,
            },
        };
        let v2 = encode_response_versioned(2, &wide).unwrap();
        match decode_response(&v2).unwrap() {
            Response::StoreStats { stats: decoded, .. } => {
                assert_eq!((decoded.merges, decoded.refits), (0, 0));
                assert_eq!((decoded.merged_mass, decoded.merge_error), (0.0, 0.0));
                assert_eq!(decoded.keys, 2);
                assert_eq!(decoded.max_epoch, 3);
            }
            other => panic!("wrong response: {other:?}"),
        }
        let v3 = encode_response_versioned(3, &wide).unwrap();
        assert_eq!(decode_response(&v3).unwrap(), wide);
    }

    #[test]
    fn v2_only_ops_in_a_v1_frame_are_unknown_ops() {
        use crate::frame::seal_message_versioned;
        for op in [0x05u8, 0x06, 0x07, 0x12] {
            let message = seal_message_versioned(1, op, &[]);
            assert!(
                matches!(
                    decode_request(&message),
                    Err(CodecError::InvalidTag { what: "request op", .. })
                ),
                "op {op:#04x} must be unknown under v1"
            );
        }
        for op in [0x85u8, 0x86, 0x87, 0x91] {
            let mut payload = Vec::new();
            put_u64(&mut payload, 1);
            let message = seal_message_versioned(1, op, &payload);
            assert!(
                matches!(
                    decode_response(&message),
                    Err(CodecError::InvalidTag { what: "response op", .. })
                ),
                "op {op:#04x} must be unknown under v1"
            );
        }
    }

    #[test]
    fn malformed_keys_are_typed_errors() {
        // Empty key.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));

        // Non-UTF-8 key.
        let mut payload = Vec::new();
        put_u64(&mut payload, 2);
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));

        // Oversized key.
        let long = "k".repeat(hist_persist::MAX_KEY_BYTES + 1);
        let mut payload = Vec::new();
        put_key(&mut payload, &long);
        let message = seal_message(OP_STATS, &payload);
        assert!(matches!(decode_request(&message), Err(CodecError::InvalidKey { .. })));
    }

    #[test]
    fn cdf_values_ship_as_raw_bits() {
        // Negative zero and a subnormal survive exactly — the wire carries
        // IEEE-754 bits, not a decimal rendering.
        let values = vec![-0.0, f64::MIN_POSITIVE / 4.0];
        let encoded = encode_response(&Response::CdfBatch { epoch: 1, values: values.clone() });
        match decode_response(&encoded).unwrap() {
            Response::CdfBatch { values: decoded, .. } => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&decoded), bits(&values));
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn error_codes_round_trip_including_unknown() {
        for raw in 0..=255u8 {
            assert_eq!(ErrorCode::from_u8(raw).to_u8(), raw);
        }
        assert_eq!(ErrorCode::from_u8(9), ErrorCode::UnknownKey);
        assert_eq!(ErrorCode::from_u8(10), ErrorCode::InvalidKey);
        assert_eq!(ErrorCode::from_u8(200), ErrorCode::Unknown(200));
    }

    #[test]
    fn v1_error_frames_never_carry_v2_only_codes() {
        use crate::frame::check_envelope;
        // Regression: mirroring a v1 request's version used to stamp the
        // v2-only UnknownKey/InvalidKey bytes into v1 error frames, which v1
        // clients have no decoding for. At v1 they downgrade to InvalidQuery;
        // at v2 they pass through untouched.
        for code in [ErrorCode::UnknownKey, ErrorCode::InvalidKey] {
            let response =
                Response::Error { epoch: 3, code, message: "no such key `api/login`".into() };
            let message = encode_response_versioned(1, &response).unwrap();
            let (version, op, payload) = check_envelope(&message[4..]).unwrap();
            assert_eq!(version, 1);
            match decode_response_frame(version, op, payload).unwrap() {
                Response::Error { epoch, code, message } => {
                    assert_eq!(epoch, 3);
                    assert_eq!(code, ErrorCode::InvalidQuery, "v1 must get a v1-era code");
                    assert_eq!(message, "no such key `api/login`");
                }
                other => panic!("expected an error frame, got {other:?}"),
            }

            // v2 frames keep the precise code.
            let message = encode_response_versioned(2, &response).unwrap();
            let (version, op, payload) = check_envelope(&message[4..]).unwrap();
            match decode_response_frame(version, op, payload).unwrap() {
                Response::Error { code: decoded, .. } => assert_eq!(decoded, code),
                other => panic!("expected an error frame, got {other:?}"),
            }
        }

        // v1-era codes and foreign (Unknown) passthrough bytes are untouched
        // at both versions.
        for code in [ErrorCode::MalformedFrame, ErrorCode::EmptyStore, ErrorCode::Unknown(200)] {
            assert_eq!(code.for_version(1), code);
            assert_eq!(code.for_version(2), code);
        }
    }

    #[test]
    fn request_and_response_ops_reject_each_other() {
        let request = encode_request(&Request::Stats { key: DEFAULT_KEY.into() });
        assert!(matches!(
            decode_response(&request),
            Err(CodecError::InvalidTag { what: "response op", .. })
        ));
        let response = encode_response(&Response::Updated { epoch: 1 });
        assert!(matches!(
            decode_request(&response),
            Err(CodecError::InvalidTag { what: "request op", .. })
        ));
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // A CdfBatch announcing u64::MAX indices inside a valid envelope.
        let mut payload = Vec::new();
        put_key(&mut payload, DEFAULT_KEY);
        put_u64(&mut payload, u64::MAX);
        let message = seal_message(OP_CDF_BATCH, &payload);
        assert!(matches!(
            decode_request(&message),
            Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
        ));

        // A KeyList announcing u64::MAX keys.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // epoch
        put_u64(&mut payload, u64::MAX);
        let message = seal_message(OP_LIST_KEYS_OK, &payload);
        assert!(matches!(
            decode_response(&message),
            Err(CodecError::CountOutOfBounds { count: u64::MAX, .. })
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Vec::new();
        put_key(&mut payload, DEFAULT_KEY);
        put_u64(&mut payload, 0); // zero indices…
        payload.extend_from_slice(b"junk"); // …then junk
        let message = seal_message(OP_CDF_BATCH, &payload);
        assert!(matches!(
            decode_request(&message),
            Err(CodecError::TrailingBytes { remaining: 4 })
        ));
    }
}

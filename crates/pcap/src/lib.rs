//! # rtc-pcap
//!
//! A from-scratch reader/writer for the classic libpcap capture format and
//! the in-memory trace model the compliance pipeline operates on.
//!
//! The paper's raw inputs are Wireshark captures from two iPhones; this
//! crate is the substitution's I/O layer. The emulated experiment harness
//! (`rtc-capture`) writes traces through [`Writer`], and the analysis
//! pipeline reads them back through [`Reader`] — so the analysis code sees
//! exactly what it would see on real captures: timestamped link-layer
//! frames.
//!
//! Supported: the classic pcap format (magic `0xa1b2c3d4`), both byte
//! orders, microsecond and nanosecond timestamp resolutions, and link types
//! [`LinkType::Ethernet`] and [`LinkType::RawIp`]. The [`pcapng`] module reads
//! and writes Wireshark's default pcapng format as well.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pcapng;
pub mod time;
pub mod trace;

pub use time::Timestamp;
pub use trace::{decode_record, Record, Trace};

use std::io::{Read, Write};

/// Errors produced by pcap I/O.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with a recognized pcap magic number.
    BadMagic(u32),
    /// A structural problem in the file; the payload names it.
    Malformed(&'static str),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "pcap i/o error: {e}"),
            Error::BadMagic(m) => write!(f, "unrecognized pcap magic {m:#010x}"),
            Error::Malformed(what) => write!(f, "malformed pcap: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Coverage probe on malformed-capture rejections: each distinct
/// constraint string is its own rtc-cov slot. Compiled out without the
/// `cov-probes` feature.
#[inline]
fn malformed(what: &'static str) -> Error {
    #[cfg(feature = "cov-probes")]
    {
        rtc_cov::hit(rtc_cov::dynamic_id(&["pcap-error", what]));
    }
    Error::Malformed(what)
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

/// Result alias for pcap I/O.
pub type Result<T> = core::result::Result<T, Error>;

/// Magic number of a microsecond-resolution little/big-endian pcap file.
pub const MAGIC_MICROS: u32 = 0xa1b2_c3d4;
/// Magic number of a nanosecond-resolution pcap file.
pub const MAGIC_NANOS: u32 = 0xa1b2_3c4d;

/// Link-layer framing of the records in a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkType {
    /// Ethernet II frames (`LINKTYPE_ETHERNET` = 1).
    #[default]
    Ethernet,
    /// Raw IPv4/IPv6 packets (`LINKTYPE_RAW` = 101).
    RawIp,
}

impl LinkType {
    /// The on-file link-type code.
    pub fn code(self) -> u32 {
        match self {
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
        }
    }

    /// Decode an on-file link-type code.
    pub fn from_code(code: u32) -> Option<LinkType> {
        match code {
            1 => Some(LinkType::Ethernet),
            101 => Some(LinkType::RawIp),
            _ => None,
        }
    }
}

/// Maximum bytes captured per packet, as written in our file headers.
pub const DEFAULT_SNAPLEN: u32 = 262_144;

#[derive(Debug, Clone, Copy)]
struct FileHeader {
    swapped: bool,
    nanos: bool,
    link_type: LinkType,
}

/// Bytes per arena chunk the reader carves record buffers from. Records
/// larger than this get their own allocation.
const ARENA_CHUNK: usize = 1 << 16;

/// Streaming pcap reader.
///
/// Record payloads are carved out of a shared chunk arena: the reader
/// fills `ARENA_CHUNK`-sized `BytesMut` buffers and freezes a view per
/// record, so a chunk of ~90 average-sized records costs one heap
/// allocation instead of one per record, and every downstream `Datagram`
/// payload is a range-indexed view into the same buffer (zero copies from
/// file read to candidate extraction). A chunk is released once every
/// record sliced from it is dropped.
pub struct Reader<R: Read> {
    inner: R,
    header: FileHeader,
    arena: bytes::BytesMut,
}

impl<R: Read> Reader<R> {
    /// Open a pcap stream, consuming and validating the 24-byte file header.
    pub fn new(mut inner: R) -> Result<Reader<R>> {
        let mut h = [0u8; 24];
        inner.read_exact(&mut h)?;
        let magic = u32::from_be_bytes([h[0], h[1], h[2], h[3]]);
        let (swapped, nanos) = match magic {
            MAGIC_MICROS => (false, false),
            MAGIC_NANOS => (false, true),
            m if m.swap_bytes() == MAGIC_MICROS => (true, false),
            m if m.swap_bytes() == MAGIC_NANOS => (true, true),
            m => return Err(Error::BadMagic(m)),
        };
        let read_u32 = |b: &[u8]| {
            let v = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let link_code = read_u32(&h[20..24]);
        let link_type = LinkType::from_code(link_code).ok_or_else(|| malformed("unsupported link type"))?;
        #[cfg(feature = "cov-probes")]
        {
            match (swapped, nanos) {
                (false, false) => rtc_cov::probe!("pcap.header.be-micros"),
                (false, true) => rtc_cov::probe!("pcap.header.be-nanos"),
                (true, false) => rtc_cov::probe!("pcap.header.le-micros"),
                (true, true) => rtc_cov::probe!("pcap.header.le-nanos"),
            }
        }
        Ok(Reader { inner, header: FileHeader { swapped, nanos, link_type }, arena: bytes::BytesMut::new() })
    }

    /// The trace's link-layer type.
    pub fn link_type(&self) -> LinkType {
        self.header.link_type
    }

    /// Read the next record; `Ok(None)` at a clean end of file.
    pub fn next_record(&mut self) -> Result<Option<Record>> {
        let mut h = [0u8; 16];
        match self.inner.read_exact(&mut h[..1]) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        self.inner.read_exact(&mut h[1..])?;
        let read_u32 = |b: &[u8]| {
            let v = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            if self.header.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let ts_sec = read_u32(&h[0..4]) as u64;
        let ts_frac = read_u32(&h[4..8]) as u64;
        let incl_len = read_u32(&h[8..12]) as usize;
        let orig_len = read_u32(&h[12..16]) as usize;
        if incl_len > DEFAULT_SNAPLEN as usize {
            return Err(malformed("record exceeds snaplen"));
        }
        if incl_len > orig_len {
            return Err(malformed("incl_len > orig_len"));
        }
        let micros = if self.header.nanos { ts_frac / 1000 } else { ts_frac };
        // Carve the record out of the arena. `reserve` reuses spare
        // capacity in the current chunk and only allocates a fresh one
        // when the chunk is exhausted (outstanding record views keep the
        // old chunk alive, so it cannot be recycled in place).
        if self.arena.capacity() < incl_len {
            self.arena.reserve(incl_len.max(ARENA_CHUNK));
        }
        self.arena.resize(incl_len, 0);
        self.inner.read_exact(&mut self.arena[..incl_len])?;
        let data = self.arena.split_to(incl_len).freeze();
        rtc_cov::probe!("pcap.record.accept");
        Ok(Some(Record { ts: Timestamp::from_micros(ts_sec * 1_000_000 + micros), data }))
    }

    /// Read the remaining records into a [`Trace`].
    pub fn read_trace(mut self) -> Result<Trace> {
        let mut records = Vec::new();
        while let Some(r) = self.next_record()? {
            records.push(r);
        }
        Ok(Trace { link_type: self.header.link_type, records })
    }
}

/// Default number of records per [`TraceReader`] chunk.
pub const DEFAULT_CHUNK_RECORDS: usize = 1024;

/// Chunked streaming reader: iterates a capture in bounded record batches
/// without ever materializing the whole [`Trace`] in memory.
///
/// Each chunk is at most `chunk_records` records; peak memory for the read
/// side is therefore O(chunk), independent of capture size; read it with
/// [`TraceReader::next_chunk`].
pub struct TraceReader<R: Read> {
    inner: Reader<R>,
    chunk_records: usize,
}

impl<R: Read> TraceReader<R> {
    /// Open a pcap stream for chunked reading.
    ///
    /// `chunk_records` of 0 selects [`DEFAULT_CHUNK_RECORDS`].
    pub fn new(inner: R, chunk_records: usize) -> Result<TraceReader<R>> {
        let inner = Reader::new(inner)?;
        let chunk_records = if chunk_records == 0 { DEFAULT_CHUNK_RECORDS } else { chunk_records };
        Ok(TraceReader { inner, chunk_records })
    }

    /// The trace's link-layer type.
    pub fn link_type(&self) -> LinkType {
        self.inner.link_type()
    }

    /// Read the next bounded batch of records; `Ok(None)` at end of file.
    ///
    /// A returned chunk is never empty and never longer than the configured
    /// chunk size.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<Record>>> {
        let mut chunk = Vec::new();
        while chunk.len() < self.chunk_records {
            match self.inner.next_record()? {
                Some(r) => chunk.push(r),
                None => break,
            }
        }
        if chunk.is_empty() {
            Ok(None)
        } else {
            Ok(Some(chunk))
        }
    }
}

/// Open a pcap file on disk for chunked streaming reads.
///
/// `chunk_records` of 0 selects [`DEFAULT_CHUNK_RECORDS`].
pub fn open_file(
    path: impl AsRef<std::path::Path>,
    chunk_records: usize,
) -> Result<TraceReader<std::io::BufReader<std::fs::File>>> {
    let file = std::fs::File::open(path)?;
    TraceReader::new(std::io::BufReader::new(file), chunk_records)
}

/// Parse a complete pcap byte buffer into a [`Trace`].
pub fn parse(bytes: &[u8]) -> Result<Trace> {
    Reader::new(bytes)?.read_trace()
}

/// Parse a capture buffer in either format: pcapng is detected by its
/// section-header magic, anything else is tried as classic pcap.
pub fn parse_any(bytes: &[u8]) -> Result<Trace> {
    if pcapng::sniff(bytes) {
        rtc_cov::probe!("pcap.sniff.pcapng");
        pcapng::parse(bytes)
    } else {
        rtc_cov::probe!("pcap.sniff.classic");
        parse(bytes)
    }
}

/// Read a pcap file from disk.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Trace> {
    let file = std::fs::File::open(path)?;
    Reader::new(std::io::BufReader::new(file))?.read_trace()
}

/// Read a capture file from disk in either classic pcap or pcapng format.
pub fn read_file_any(path: impl AsRef<std::path::Path>) -> Result<Trace> {
    let bytes = std::fs::read(path)?;
    parse_any(&bytes)
}

/// Streaming pcap writer (native byte order is big-endian on the wire here:
/// we always write the un-swapped microsecond format).
pub struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    /// Start a pcap stream, emitting the 24-byte file header.
    pub fn new(mut inner: W, link_type: LinkType) -> Result<Writer<W>> {
        inner.write_all(&MAGIC_MICROS.to_be_bytes())?;
        inner.write_all(&2u16.to_be_bytes())?; // version major
        inner.write_all(&4u16.to_be_bytes())?; // version minor
        inner.write_all(&0i32.to_be_bytes())?; // thiszone
        inner.write_all(&0u32.to_be_bytes())?; // sigfigs
        inner.write_all(&DEFAULT_SNAPLEN.to_be_bytes())?;
        inner.write_all(&link_type.code().to_be_bytes())?;
        Ok(Writer { inner })
    }

    /// Append one record: its 16-byte header in one write, then its data.
    pub fn write_record(&mut self, record: &Record) -> Result<()> {
        let micros = record.ts.as_micros();
        let len = (record.data.len() as u32).to_be_bytes();
        let mut header = [0u8; RECORD_HEADER_LEN];
        header[0..4].copy_from_slice(&((micros / 1_000_000) as u32).to_be_bytes());
        header[4..8].copy_from_slice(&((micros % 1_000_000) as u32).to_be_bytes());
        header[8..12].copy_from_slice(&len); // captured length
        header[12..16].copy_from_slice(&len); // original length
        self.inner.write_all(&header)?;
        self.inner.write_all(&record.data)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Bytes of the pcap file header.
const FILE_HEADER_LEN: usize = 24;

/// Bytes of a pcap record header.
const RECORD_HEADER_LEN: usize = 16;

/// Buffer of [`write_file`]'s writer.
const WRITE_BUFFER: usize = 64 << 10;

/// Serialize a [`Trace`] to pcap bytes.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let len = FILE_HEADER_LEN + trace.records.iter().map(|r| RECORD_HEADER_LEN + r.data.len()).sum::<usize>();
    let mut w = Writer::new(Vec::with_capacity(len), trace.link_type).expect("vec write cannot fail");
    for r in &trace.records {
        w.write_record(r).expect("vec write cannot fail");
    }
    w.finish().expect("vec flush cannot fail")
}

/// Write a [`Trace`] to a file on disk.
pub fn write_file(path: impl AsRef<std::path::Path>, trace: &Trace) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = Writer::new(std::io::BufWriter::with_capacity(WRITE_BUFFER, file), trace.link_type)?;
    for r in &trace.records {
        w.write_record(r)?;
    }
    w.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_wire::ip::{build_ethernet_packet, FiveTuple};

    fn sample_trace() -> Trace {
        let t = FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "203.0.113.1:2000".parse().unwrap());
        Trace {
            link_type: LinkType::Ethernet,
            records: vec![
                Record { ts: Timestamp::from_micros(1_000_000), data: build_ethernet_packet(&t, b"one", 0).into() },
                Record { ts: Timestamp::from_micros(1_020_000), data: build_ethernet_packet(&t, b"two", 0).into() },
                Record { ts: Timestamp::from_micros(2_500_001), data: build_ethernet_packet(&t, b"three", 0).into() },
            ],
        }
    }

    #[test]
    fn roundtrip_in_memory() {
        let trace = sample_trace();
        let bytes = to_bytes(&trace);
        let back = parse(&bytes).unwrap();
        assert_eq!(back.link_type, LinkType::Ethernet);
        assert_eq!(back.records.len(), 3);
        for (a, b) in trace.records.iter().zip(&back.records) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn records_are_written_in_the_classic_big_endian_layout() {
        let trace = Trace {
            link_type: LinkType::Ethernet,
            records: vec![Record { ts: Timestamp::from_micros(3_000_042), data: vec![0xAB; 5].into() }],
        };
        let bytes = to_bytes(&trace);
        assert_eq!(bytes.len(), FILE_HEADER_LEN + RECORD_HEADER_LEN + 5);
        assert_eq!(bytes.capacity(), bytes.len(), "to_bytes sizes its buffer exactly");
        assert_eq!(&bytes[..4], &MAGIC_MICROS.to_be_bytes());
        assert_eq!(&bytes[24..40], &[0, 0, 0, 3, 0, 0, 0, 42, 0, 0, 0, 5, 0, 0, 0, 5]);
        assert_eq!(&bytes[40..], &[0xAB; 5]);
    }

    #[test]
    fn roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("rtc-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pcap");
        let trace = sample_trace();
        write_file(&path, &trace).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.records.len(), trace.records.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swapped_byte_order_is_read() {
        let trace = sample_trace();
        let bytes = to_bytes(&trace);
        // Byte-swap every header field to fake an opposite-endian writer.
        let mut sw = Vec::new();
        for i in (0..24).step_by(4) {
            // header words are u32 except version (two u16) — swap as u32
            // works because the reader swaps back symmetrically, but the
            // version check is lenient, so handle the two u16s properly.
            if i == 4 {
                sw.extend_from_slice(&[bytes[5], bytes[4], bytes[7], bytes[6]]);
            } else {
                sw.extend_from_slice(&[bytes[i + 3], bytes[i + 2], bytes[i + 1], bytes[i]]);
            }
        }
        let mut o = 24;
        while o < bytes.len() {
            for i in (0..16).step_by(4) {
                sw.extend_from_slice(&[bytes[o + i + 3], bytes[o + i + 2], bytes[o + i + 1], bytes[o + i]]);
            }
            let incl = u32::from_be_bytes([bytes[o + 8], bytes[o + 9], bytes[o + 10], bytes[o + 11]]) as usize;
            sw.extend_from_slice(&bytes[o + 16..o + 16 + incl]);
            o += 16 + incl;
        }
        let back = parse(&sw).unwrap();
        assert_eq!(back.records.len(), 3);
        assert_eq!(back.records[0].ts, Timestamp::from_micros(1_000_000));
    }

    #[test]
    fn nanosecond_magic_is_scaled() {
        let trace = sample_trace();
        let mut bytes = to_bytes(&trace);
        bytes[..4].copy_from_slice(&MAGIC_NANOS.to_be_bytes());
        // The fractional fields are now interpreted as nanoseconds.
        let back = parse(&bytes).unwrap();
        assert_eq!(back.records[0].ts, Timestamp::from_micros(1_000_000)); // .0 s unchanged
        assert_eq!(back.records[2].ts.as_micros(), 2_000_000 + 500_001 / 1000);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&sample_trace());
        bytes[0] = 0;
        assert!(matches!(parse(&bytes), Err(Error::BadMagic(_))));
    }

    #[test]
    fn rejects_unsupported_link_type() {
        let mut bytes = to_bytes(&sample_trace());
        bytes[20..24].copy_from_slice(&228u32.to_be_bytes()); // LINKTYPE_IPV4, unsupported
        assert!(matches!(parse(&bytes), Err(Error::Malformed(_))));
    }

    #[test]
    fn truncated_record_is_io_error() {
        let bytes = to_bytes(&sample_trace());
        let cut = bytes.len() - 2;
        assert!(matches!(parse(&bytes[..cut]), Err(Error::Io(_))));
    }

    #[test]
    fn empty_trace_roundtrip() {
        let trace = Trace { link_type: LinkType::RawIp, records: vec![] };
        let back = parse(&to_bytes(&trace)).unwrap();
        assert_eq!(back.link_type, LinkType::RawIp);
        assert!(back.records.is_empty());
    }

    #[test]
    fn trace_reader_chunks_are_bounded_and_complete() {
        let trace = sample_trace();
        let bytes = to_bytes(&trace);
        let mut tr = TraceReader::new(&bytes[..], 2).unwrap();
        assert_eq!(tr.link_type(), LinkType::Ethernet);
        let first = tr.next_chunk().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        let second = tr.next_chunk().unwrap().unwrap();
        assert_eq!(second.len(), 1);
        assert!(tr.next_chunk().unwrap().is_none());
        let streamed: Vec<Record> = first.into_iter().chain(second).collect();
        assert_eq!(streamed, trace.records);
    }

    #[test]
    fn trace_reader_zero_chunk_uses_default() {
        let bytes = to_bytes(&sample_trace());
        let mut tr = TraceReader::new(&bytes[..], 0).unwrap();
        // A chunk size of 0 would yield no chunk at all; the default
        // returns the whole three-record trace in one.
        assert_eq!(tr.next_chunk().unwrap().map(|c| c.len()), Some(3));
        assert!(tr.next_chunk().unwrap().is_none());
    }

    #[test]
    fn open_file_streams_records() {
        let dir = std::env::temp_dir().join("rtc-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunked.pcap");
        let trace = sample_trace();
        write_file(&path, &trace).unwrap();
        let mut tr = open_file(&path, 1).unwrap();
        let mut n = 0;
        while let Some(chunk) = tr.next_chunk().unwrap() {
            assert_eq!(chunk.len(), 1);
            n += chunk.len();
        }
        assert_eq!(n, trace.records.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incl_len_greater_than_orig_rejected() {
        let mut bytes = to_bytes(&sample_trace());
        // Set orig_len of the first record to incl_len - 1.
        let incl = u32::from_be_bytes([bytes[32], bytes[33], bytes[34], bytes[35]]);
        bytes[36..40].copy_from_slice(&(incl - 1).to_be_bytes());
        assert!(matches!(parse(&bytes), Err(Error::Malformed(_))));
    }
}

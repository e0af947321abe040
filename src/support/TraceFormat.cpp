//===- TraceFormat.cpp - Compact binary trace records -------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/TraceFormat.h"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define ASYNCG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace asyncg;
using namespace asyncg::trace;

static bool fail(std::string *Err, const char *Message) {
  if (Err)
    *Err = Message;
  return false;
}

//===----------------------------------------------------------------------===//
// V4FrameEncoder
//===----------------------------------------------------------------------===//

void V4FrameEncoder::encodeFrame(const TraceRecord *Records, size_t N,
                                 std::vector<uint8_t> &Out) {
  for (TraceRecord &P : Prev)
    P = TraceRecord();
  for (unsigned C = 0; C != FrameColumns; ++C)
    Col[C].clear();

  for (size_t I = 0; I != N; ++I) {
    const TraceRecord &R = Records[I];
    uint8_t Op = R.Op;
    TraceRecord &P = Prev[Op < TraceOpLimit ? Op : 0];
    uint8_t Mask = 0;
    if (R.A8 != P.A8) {
      Mask |= MaskA8;
      appendVarint(Col[2], zigzagEncode(static_cast<int64_t>(R.A8) -
                                        static_cast<int64_t>(P.A8)));
    }
    if (R.B16 != P.B16) {
      Mask |= MaskB16;
      appendVarint(Col[3], zigzagEncode(static_cast<int64_t>(R.B16) -
                                        static_cast<int64_t>(P.B16)));
    }
    if (R.C32 != P.C32) {
      Mask |= MaskC32;
      appendVarint(Col[4], zigzagEncode(static_cast<int64_t>(R.C32) -
                                        static_cast<int64_t>(P.C32)));
    }
    if (R.D64 != P.D64) {
      Mask |= MaskD64;
      appendVarint(Col[5], zigzagEncode(static_cast<int64_t>(R.D64 - P.D64)));
    }
    if (R.E64 != P.E64) {
      Mask |= MaskE64;
      appendVarint(Col[6], zigzagEncode(static_cast<int64_t>(R.E64 - P.E64)));
    }
    if (R.F64 != P.F64) {
      Mask |= MaskF64;
      appendVarint(Col[7], zigzagEncode(static_cast<int64_t>(R.F64 - P.F64)));
    }
    Col[0].push_back(Op);
    Col[1].push_back(Mask);
    P = R;
  }

  TraceFrameHeader H;
  H.Magic = FrameMagic;
  H.RecordCount = static_cast<uint32_t>(N);
  for (unsigned C = 0; C != FrameColumns; ++C)
    H.ColBytes[C] = static_cast<uint32_t>(Col[C].size());
  size_t HeaderAt = Out.size();
  Out.resize(HeaderAt + sizeof(H));
  std::memcpy(Out.data() + HeaderAt, &H, sizeof(H));
  for (unsigned C = 0; C != FrameColumns; ++C)
    Out.insert(Out.end(), Col[C].begin(), Col[C].end());
}

//===----------------------------------------------------------------------===//
// TraceFileWriter
//===----------------------------------------------------------------------===//

TraceFileWriter::~TraceFileWriter() {
  if (File)
    std::fclose(File);
}

bool TraceFileWriter::open(const std::string &Path, uint32_t Ver) {
  if (Ver < TraceMinVersion || Ver > TraceVersion)
    return false;
  File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  Count = 0;
  RecordSectionBytes = 0;
  Version = Ver;
  CkptSyms = 0;
  Pending.clear();
  TraceFileHeader H = {};
  std::memcpy(H.Magic, TraceMagic, sizeof(H.Magic));
  H.Version = Version;
  return std::fwrite(&H, sizeof(H), 1, File) == 1;
}

bool TraceFileWriter::writeSymCheckpoint() {
  SymbolTable &Tab = symtab();
  uint64_t Now = Tab.size();
  if (Now == CkptSyms)
    return true;
  TraceSymFrameHeader H = {};
  H.Magic = FrameSymMagic;
  H.SymCount = static_cast<uint32_t>(Now - CkptSyms);
  H.FirstId = CkptSyms;
  uint64_t ByteLen = 0;
  for (uint64_t Id = CkptSyms; Id != Now; ++Id)
    ByteLen += sizeof(uint32_t) + Tab.view(static_cast<SymbolId>(Id)).size();
  H.ByteLen = ByteLen;
  if (std::fwrite(&H, sizeof(H), 1, File) != 1)
    return false;
  for (uint64_t Id = CkptSyms; Id != Now; ++Id) {
    std::string_view S = Tab.view(static_cast<SymbolId>(Id));
    uint32_t Len = static_cast<uint32_t>(S.size());
    if (std::fwrite(&Len, sizeof(Len), 1, File) != 1 ||
        (Len != 0 && std::fwrite(S.data(), 1, Len, File) != Len))
      return false;
  }
  // Checkpoint bytes are durability overhead, not record payload, so they
  // stay out of recordBytes() (the compression metric).
  CkptSyms = Now;
  return true;
}

bool TraceFileWriter::flushFrame() {
  if (Pending.empty())
    return true;
  // Symbols first: a recovery scan replays frames front to back, so every
  // id the frame references must already be on disk when the frame is.
  if (Checkpoints && !writeSymCheckpoint())
    return false;
  FrameBuf.clear();
  Encoder.encodeFrame(Pending.data(), Pending.size(), FrameBuf);
  Pending.clear();
  if (std::fwrite(FrameBuf.data(), 1, FrameBuf.size(), File) !=
      FrameBuf.size())
    return false;
  RecordSectionBytes += FrameBuf.size();
  // Frame-aligned flush checkpoint: after this line the on-disk prefix is
  // recoverable up to and including this frame even if the process dies.
  if (Checkpoints && std::fflush(File) != 0)
    return false;
  return true;
}

bool TraceFileWriter::append(const TraceRecord *Records, size_t N) {
  if (!File || N == 0)
    return File != nullptr;
  if (Version > TraceLastRawVersion) {
    Count += N;
    while (N != 0) {
      size_t Take = FrameRecords - Pending.size();
      if (Take > N)
        Take = N;
      Pending.insert(Pending.end(), Records, Records + Take);
      Records += Take;
      N -= Take;
      if (Pending.size() == FrameRecords && !flushFrame())
        return false;
    }
    return true;
  }
  if (std::fwrite(Records, sizeof(TraceRecord), N, File) != N)
    return false;
  Count += N;
  RecordSectionBytes += N * sizeof(TraceRecord);
  return true;
}

bool TraceFileWriter::finalize() {
  if (!File)
    return false;
  bool Ok = true;
  if (Version > TraceLastRawVersion)
    Ok = flushFrame();
  long SymtabOffset = std::ftell(File);
  Ok = Ok && SymtabOffset > 0;

  // Dump the whole symbol table: every id a record can reference is below
  // the current size, and for trace-sized workloads the section is small.
  SymbolTable &Tab = symtab();
  uint64_t SymCount = Tab.size();
  Ok = Ok && std::fwrite(&SymCount, sizeof(SymCount), 1, File) == 1;
  for (SymbolId Id = 0; Ok && Id < SymCount; ++Id) {
    std::string_view S = Tab.view(Id);
    uint32_t Len = static_cast<uint32_t>(S.size());
    Ok = std::fwrite(&Len, sizeof(Len), 1, File) == 1 &&
         (Len == 0 || std::fwrite(S.data(), 1, Len, File) == Len);
  }

  if (Ok) {
    TraceFileHeader H = {};
    std::memcpy(H.Magic, TraceMagic, sizeof(H.Magic));
    H.Version = Version;
    H.RecordCount = Count;
    H.SymtabOffset = static_cast<uint64_t>(SymtabOffset);
    Ok = std::fseek(File, 0, SEEK_SET) == 0 &&
         std::fwrite(&H, sizeof(H), 1, File) == 1;
  }
  Ok = std::fclose(File) == 0 && Ok;
  File = nullptr;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Shared image validation
//===----------------------------------------------------------------------===//

bool trace::validateTraceImage(const uint8_t *Bytes, uint64_t Size,
                               TraceFileHeader &Header,
                               std::vector<SymbolId> &Remap,
                               std::string *Err) {
  if (Size < sizeof(TraceFileHeader))
    return fail(Err, "trace file truncated: no header");
  std::memcpy(&Header, Bytes, sizeof(Header));
  if (std::memcmp(Header.Magic, TraceMagic, sizeof(Header.Magic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Header.Version < TraceMinVersion || Header.Version > TraceVersion)
    return fail(Err, "unsupported trace version");
  if (Header.SymtabOffset < sizeof(TraceFileHeader) ||
      Header.SymtabOffset > Size)
    return fail(Err, "trace file truncated: no symbol section");
  if (Header.Version <= TraceLastRawVersion) {
    uint64_t RecordBytes = Header.SymtabOffset - sizeof(TraceFileHeader);
    if (RecordBytes / sizeof(TraceRecord) < Header.RecordCount)
      return fail(Err, "trace file truncated: record section");
  }

  // Symbol section: count + length-prefixed strings, every length checked
  // against the bytes actually present (a corrupt length must not drive a
  // multi-gigabyte allocation).
  const uint8_t *P = Bytes + Header.SymtabOffset;
  const uint8_t *End = Bytes + Size;
  if (End - P < static_cast<ptrdiff_t>(sizeof(uint64_t)))
    return fail(Err, "trace file truncated: symbol count");
  uint64_t SymCount;
  std::memcpy(&SymCount, P, sizeof(SymCount));
  P += sizeof(SymCount);
  // Each symbol needs at least its 4-byte length prefix.
  if (SymCount > static_cast<uint64_t>(End - P) / sizeof(uint32_t))
    return fail(Err, "corrupt trace: implausible symbol count");
  Remap.clear();
  Remap.reserve(static_cast<size_t>(SymCount));
  std::string Scratch;
  for (uint64_t I = 0; I != SymCount; ++I) {
    if (End - P < static_cast<ptrdiff_t>(sizeof(uint32_t)))
      return fail(Err, "trace file truncated: symbol length");
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    P += sizeof(Len);
    if (Len > static_cast<uint64_t>(End - P))
      return fail(Err, "trace file truncated: symbol bytes");
    Scratch.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    Remap.push_back(symtab().intern(Scratch));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Torn-tail prefix recovery
//===----------------------------------------------------------------------===//

/// Reads the symbol-checkpoint frame at \p Bytes + \p Off (\p Avail bytes
/// remaining), re-interning its strings and appending the new ids to
/// \p Remap. On success sets \p Consumed to the frame's total size. On a
/// torn or corrupt checkpoint returns false with \p Stop describing why;
/// symbols already re-interned before the damage are harmless.
static bool readSymCheckpoint(const uint8_t *Bytes, uint64_t Off,
                              uint64_t Avail, std::vector<SymbolId> &Remap,
                              uint64_t &Consumed, std::string &Stop) {
  TraceSymFrameHeader SH;
  std::memcpy(&SH, Bytes + Off, sizeof(SH));
  if (SH.ByteLen > Avail - sizeof(SH)) {
    Stop = "trace file truncated: symbol checkpoint";
    return false;
  }
  if (SH.FirstId != Remap.size()) {
    Stop = "corrupt trace: checkpoint ids not contiguous";
    return false;
  }
  const uint8_t *P = Bytes + Off + sizeof(SH);
  const uint8_t *End = P + SH.ByteLen;
  std::string Scratch;
  for (uint32_t I = 0; I != SH.SymCount; ++I) {
    if (End - P < static_cast<ptrdiff_t>(sizeof(uint32_t))) {
      Stop = "corrupt trace: checkpoint symbol bytes";
      return false;
    }
    uint32_t Len;
    std::memcpy(&Len, P, sizeof(Len));
    P += sizeof(Len);
    if (Len > static_cast<uint64_t>(End - P)) {
      Stop = "corrupt trace: checkpoint symbol bytes";
      return false;
    }
    Scratch.assign(reinterpret_cast<const char *>(P), Len);
    P += Len;
    Remap.push_back(symtab().intern(Scratch));
  }
  if (P != End) {
    Stop = "corrupt trace: checkpoint symbol bytes";
    return false;
  }
  Consumed = sizeof(SH) + SH.ByteLen;
  return true;
}

/// Structural validation of the record-frame header at \p P: the checks
/// decodeV4Frame performs before touching any varint stream. On success
/// sets the frame's total size and record count. Lets a pre-scan locate
/// frame boundaries in O(1) per frame without decoding the columns.
static bool checkFrameHeader(const uint8_t *P, size_t Avail,
                             size_t &TotalBytes, uint32_t &Records,
                             std::string *Err) {
  if (Avail < sizeof(TraceFrameHeader))
    return fail(Err, "trace file truncated: frame header");
  TraceFrameHeader H;
  std::memcpy(&H, P, sizeof(H));
  if (H.Magic != FrameMagic)
    return fail(Err, "corrupt trace: bad frame magic");
  if (H.RecordCount == 0 || H.RecordCount > FrameMaxRecords)
    return fail(Err, "corrupt trace: implausible frame record count");
  uint64_t Payload = 0;
  for (unsigned C = 0; C != FrameColumns; ++C)
    Payload += H.ColBytes[C];
  if (Payload > Avail - sizeof(TraceFrameHeader))
    return fail(Err, "trace file truncated: frame payload");
  if (H.ColBytes[0] != H.RecordCount || H.ColBytes[1] != H.RecordCount)
    return fail(Err, "corrupt trace: frame op/mask column size");
  TotalBytes = sizeof(TraceFrameHeader) + static_cast<size_t>(Payload);
  Records = H.RecordCount;
  return true;
}

bool trace::scanV4Frames(const uint8_t *P, size_t Avail, uint64_t RecordCount,
                         std::vector<TraceFrameRef> &Out, std::string *Err) {
  Out.clear();
  uint64_t Records = 0;
  uint64_t Off = 0;
  while (Records < RecordCount) {
    if (Off >= Avail)
      return fail(Err, "trace file truncated: missing frames");
    size_t Skip = 0;
    if (skipSymFrame(P + Off, Avail - static_cast<size_t>(Off), Skip)) {
      // Interleaved symbol checkpoint: superseded by the finalized symbol
      // section, so a strict scan only steps over it.
      Off += Skip;
      continue;
    }
    TraceFrameRef F;
    size_t Bytes = 0;
    uint32_t N = 0;
    if (!checkFrameHeader(P + Off, Avail - static_cast<size_t>(Off), Bytes, N,
                          Err))
      return false;
    F.Offset = Off;
    F.Bytes = static_cast<uint32_t>(Bytes);
    F.Records = N;
    Out.push_back(F);
    Records += N;
    Off += Bytes;
  }
  if (Records != RecordCount)
    return fail(Err, "corrupt trace: frame record counts disagree with header");
  return true;
}

bool trace::scanV4Recovery(const uint8_t *Bytes, uint64_t Size,
                           std::vector<TraceFrameRef> &Out,
                           std::vector<SymbolId> &Remap,
                           TraceRecoveryInfo *Info, std::string *Err) {
  TraceRecoveryInfo Local;
  TraceRecoveryInfo &R = Info ? *Info : Local;
  R = TraceRecoveryInfo();
  Out.clear();
  Remap.clear();
  if (Size < sizeof(TraceMagic) ||
      std::memcmp(Bytes, TraceMagic, sizeof(TraceMagic)) != 0)
    return fail(Err, "bad magic: not an .agtrace file");
  if (Size < sizeof(TraceFileHeader)) {
    R.DroppedBytes = Size;
    R.TailError = "trace file truncated: mid-header";
    return true;
  }
  TraceFileHeader H;
  std::memcpy(&H, Bytes, sizeof(H));
  if (H.Version <= TraceLastRawVersion || H.Version > TraceVersion)
    return fail(Err, "trace version has no recovery checkpoints");

  uint64_t Off = sizeof(TraceFileHeader);
  std::string Stop;
  while (Off < Size) {
    uint64_t Avail = Size - Off;
    uint32_t Magic = 0;
    if (Avail >= sizeof(Magic))
      std::memcpy(&Magic, Bytes + Off, sizeof(Magic));
    if (Avail < sizeof(TraceFrameHeader)) {
      Stop = "trace file truncated: frame header";
      break;
    }
    if (Magic == FrameSymMagic) {
      uint64_t Consumed = 0;
      if (!readSymCheckpoint(Bytes, Off, Avail, Remap, Consumed, Stop))
        break;
      Off += Consumed;
      continue;
    }
    std::string FrameErr;
    TraceFrameRef F;
    size_t FrameBytes = 0;
    uint32_t N = 0;
    if (!checkFrameHeader(Bytes + Off, static_cast<size_t>(Avail), FrameBytes,
                          N, &FrameErr)) {
      Stop = FrameErr;
      break;
    }
    F.Offset = Off;
    F.Bytes = static_cast<uint32_t>(FrameBytes);
    F.Records = N;
    F.RemapSize = static_cast<uint32_t>(Remap.size());
    Out.push_back(F);
    ++R.Frames;
    R.Records += N;
    R.RecordBytes += FrameBytes;
    Off += FrameBytes;
  }
  R.DroppedBytes = Size - Off;
  R.TailError = Stop;
  return true;
}

//===----------------------------------------------------------------------===//
// TraceMmapReader
//===----------------------------------------------------------------------===//

TraceMmapReader::~TraceMmapReader() {
#if ASYNCG_HAVE_MMAP
  if (Mapped)
    ::munmap(const_cast<uint8_t *>(Base), static_cast<size_t>(Size));
#endif
}

bool TraceMmapReader::load(const std::string &Path, std::string *Err) {
#if ASYNCG_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return fail(Err, "cannot open trace file");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return fail(Err, "cannot stat trace file");
  }
  if (St.st_size == 0) {
    ::close(Fd);
    return fail(Err, "trace file truncated: no header");
  }
  // The whole (small, columnar) file is consumed front to back exactly
  // once, so populate the mapping in one batched read up front instead of
  // taking a synchronous page fault per 4K of frame data on a cold cache.
  int Flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  Flags |= MAP_POPULATE;
#endif
  size_t Len = static_cast<size_t>(St.st_size);
  void *Map = ::mmap(nullptr, Len, PROT_READ, Flags, Fd, 0);
  ::close(Fd);
  if (Map != MAP_FAILED) {
    ::madvise(Map, Len, MADV_SEQUENTIAL);
    Base = static_cast<const uint8_t *>(Map);
    Size = Len;
    Mapped = true;
    return true;
  }
#endif
  // No mmap here, or it failed: read the image into an owned buffer.
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Err, "cannot open trace file");
  bool Ok = std::fseek(F, 0, SEEK_END) == 0;
  long N = Ok ? std::ftell(F) : -1;
  Ok = N >= 0 && std::fseek(F, 0, SEEK_SET) == 0;
  if (Ok) {
    Owned.resize(static_cast<size_t>(N));
    Ok = std::fread(Owned.data(), 1, Owned.size(), F) == Owned.size();
  }
  std::fclose(F);
  if (!Ok)
    return fail(Err, "cannot read trace file");
  if (Owned.empty())
    return fail(Err, "trace file truncated: no header");
  Base = Owned.data();
  Size = Owned.size();
  return true;
}

bool TraceMmapReader::open(const std::string &Path, std::string *Err) {
  return load(Path, Err) && validateTraceImage(Base, Size, Header, Remap, Err);
}

//===----------------------------------------------------------------------===//
// TracePlan
//===----------------------------------------------------------------------===//

bool TracePlan::open(const std::string &Path, std::string *Err) {
  std::string StrictErr;
  if (Image.open(Path, &StrictErr)) {
    const TraceFileHeader &H = Image.header();
    Version = H.Version;
    Base = Image.recordData();
    Remap = Image.symbolRemap();
    Records = H.RecordCount;
    RecordBytes = Image.recordByteSize();
    if (!rawRows())
      return scanV4Frames(Base, static_cast<size_t>(RecordBytes), Records,
                          Frames, Err);
    for (uint64_t Row = 0; Row < Records; Row += RawBatchRows) {
      TraceFrameRef F;
      F.Offset = Row * sizeof(TraceRecord);
      F.Records = static_cast<uint32_t>(
          Records - Row < RawBatchRows ? Records - Row : RawBatchRows);
      F.Bytes = F.Records * static_cast<uint32_t>(sizeof(TraceRecord));
      Frames.push_back(F);
    }
    return true;
  }
  // Strict validation refused the file: a recording cut off by a crash
  // never got its symbol section or header counts. Locate the clean frame
  // prefix through the checkpoint chain; if the image is not recoverable
  // v4 either, the strict open's error stands.
  if (!Image.isOpen() || !scanV4Recovery(Image.data(), Image.size(), Frames,
                                         Remap, &Recovery, nullptr)) {
    if (Err)
      *Err = StrictErr;
    return false;
  }
  Version = TraceVersion;
  Recovered = true;
  Base = Image.data();
  Records = Recovery.Records;
  return true;
}

bool TracePlan::decode(size_t I, std::vector<TraceRecord> &Out,
                       std::string *Err) const {
  const TraceFrameRef &F = Frames[I];
  if (rawRows()) {
    Out.resize(F.Records);
    std::memcpy(Out.data(), Base + F.Offset, F.Bytes);
    return true;
  }
  Out.clear();
  Out.reserve(F.Records);
  size_t Consumed = 0;
  if (!decodeV4Frame(
          Base + F.Offset, F.Bytes, Consumed,
          [&Out](const TraceRecord &R) { Out.push_back(R); }, Err))
    return false;
  if (Consumed != F.Bytes)
    return fail(Err, "corrupt trace: frame size disagrees with scan");
  return true;
}

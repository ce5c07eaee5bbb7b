// offline_analysis: capture once, analyze many times. A live acquisition
// pass tees its batches to a PSTR trace store through store::RecordingSink
// while a CPA sink consumes them; the recorded file is then replayed
// out-of-core through store::FileTraceSource into a fresh engine — and
// the two ModelResults are bit-identical, demonstrating that analysis is
// fully decoupled from collection. The store is written as format v2:
// the quantized sensor columns compress losslessly (delta_bitpack), and
// replay decodes ahead on the worker pool (chunk prefetch, on by
// default) — both change bytes and schedule, never a result bit. CSV
// interchange (the format a logging attacker might keep) is handled by
// the trace_convert tool: csv2pstr / pstr2csv are value-exact in both
// directions.
//
//   ./offline_analysis [traces] [path.pstr]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/analysis_sink.h"
#include "core/guessing_entropy.h"
#include "core/trace_source.h"
#include "store/file_trace_source.h"
#include "store/trace_file_writer.h"
#include "util/hex.h"

int main(int argc, char** argv) {
  using namespace psc;

  const std::size_t traces =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;
  const std::string path = argc > 2 ? argv[2] : "/tmp/psc_traces.pstr";
  const std::vector<power::PowerModel> models = {power::PowerModel::rd0_hw};

  // --- Collection phase (the attacker's logger): one live pass feeds the
  // CPA sink and the recorder the same batches.
  util::Xoshiro256 rng(2025);
  aes::Block victim_key;
  rng.fill_bytes(victim_key);
  const core::LiveSourceConfig config{
      .profile = soc::DeviceProfile::macbook_air_m2(),
      .victim = victim::VictimModel::user_space()};
  core::LiveTraceSource source(config, victim_key, 1);
  const auto& channels = source.keys();
  const std::size_t column = static_cast<std::size_t>(
      std::find(channels.begin(), channels.end(), util::FourCc("PHPC")) -
      channels.begin());

  store::TraceFileWriter writer(
      path, {.channels = channels,
             .metadata = store::device_metadata(config.profile.name,
                                                config.profile.os_version),
             .channel_codecs = store::uniform_channel_codecs(
                 channels.size(), store::ColumnCodec::delta_bitpack)});
  core::CpaSink live_cpa(models, {column});
  store::RecordingSink recorder(writer);
  core::MultiSink multi({&live_cpa, &recorder});

  core::TraceBatch batch(channels.size());
  std::size_t produced = 0;
  while (produced < traces) {
    const std::size_t chunk = std::min<std::size_t>(1024, traces - produced);
    core::collect_random_batch(source, chunk, rng, batch);
    multi.consume(batch, core::BatchLabel::unlabeled());
    produced += chunk;
  }
  writer.finalize();
  std::cout << "captured " << writer.trace_count() << " traces ("
            << channels.size() << " channels) -> " << path << " (v"
            << writer.format_version() << ", channel columns "
            << writer.channel_raw_bytes() << " -> "
            << writer.channel_stored_bytes() << " bytes)\n";

  // --- Analysis phase (possibly days later, on another machine): stream
  // the store back through the same analysis path, out-of-core.
  store::FileTraceSource replay(path);
  std::cout << "replaying " << *replay.remaining() << " traces ("
            << (replay.reader().mapped() ? "mmap" : "stream")
            << " reader, prefetched)\n\n";
  util::Xoshiro256 unused_rng(0);  // replay returns its recorded plaintexts
  const core::CpaEngine engine = core::accumulate_cpa(
      replay, util::FourCc("PHPC"), models, /*count=*/0, unused_rng);

  const auto round_keys = aes::Aes128::expand_key(victim_key);
  const auto from_file = engine.analyze(models[0], round_keys);
  const auto live = live_cpa.engine(0).analyze(models[0], round_keys);

  std::cout << "CPA from file: GE " << from_file.ge_bits << " bits (random "
            << core::random_guess_ge_bits() << "), "
            << from_file.recovered_bytes << "/16 bytes at rank 1\n"
            << "bit-identical to live pass: "
            << (from_file.ge_bits == live.ge_bits &&
                        from_file.true_ranks == live.true_ranks &&
                        from_file.best_round_key == live.best_round_key
                    ? "yes"
                    : "NO")
            << "\nbest guess : " << util::to_hex(from_file.best_round_key)
            << "\nvictim key : " << util::to_hex(victim_key) << "\n";
  return 0;
}

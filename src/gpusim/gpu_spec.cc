#include "gpusim/gpu_spec.h"

namespace sgdrc::gpusim {

GpuSpec gtx1080() {
  GpuSpec s;
  s.name = "GTX 1080";
  s.architecture = "Pascal";
  s.vram_bytes = 8ull << 30;
  s.vram_bus_width_bits = 256;
  s.num_channels = 8;
  s.channel_group_size = 4;
  s.linear_hash = true;
  s.hash_key = 0x1080c0ffee;
  s.num_tpcs = 20;
  s.sms_per_tpc = 1;
  s.peak_tflops = 8.9;
  s.l2_bytes = 2ull << 20;
  s.vram_gbps = 320.0;
  s.cache_noise_rate = 0.01;
  return s;
}

GpuSpec tesla_p40() {
  GpuSpec s;
  s.name = "Tesla P40";
  s.architecture = "Pascal";
  s.vram_bytes = 24ull << 30;
  s.vram_bus_width_bits = 384;
  s.num_channels = 12;
  s.channel_group_size = 4;
  s.linear_hash = false;
  s.hash_key = 0x9400f40dull;
  s.num_tpcs = 15;
  s.sms_per_tpc = 2;
  s.peak_tflops = 11.8;
  s.l2_bytes = 3ull << 20;
  s.vram_gbps = 347.0;
  s.cache_noise_rate = 0.01;
  return s;
}

GpuSpec rtx_a2000() {
  GpuSpec s;
  s.name = "RTX A2000";
  s.architecture = "Ampere";
  s.vram_bytes = 12ull << 30;
  s.vram_bus_width_bits = 192;
  s.num_channels = 6;
  s.channel_group_size = 2;
  s.linear_hash = false;
  s.hash_key = 0xa2000a2000ull;
  s.num_tpcs = 13;
  s.sms_per_tpc = 2;
  s.peak_tflops = 8.0;
  s.l2_bytes = 3ull << 20;
  s.vram_gbps = 288.0;
  s.cache_noise_rate = 0.05;
  return s;
}

GpuSpec a100_sxm4() {
  GpuSpec s;
  s.name = "A100-SXM4-40GB";
  s.architecture = "Ampere";
  s.vram_bytes = 40ull << 30;
  // 5120-bit HBM2e folded to 32 pseudo-channels of 32 bits each; the
  // bandwidth envelope below is the real part's, so each channel's share
  // of it comes out ~6x an A2000 channel's — the fold trades
  // channel-count fidelity for keeping ChannelSet a machine word.
  s.vram_bus_width_bits = 1024;
  s.num_channels = 32;
  s.channel_group_size = 2;
  s.linear_hash = false;
  s.hash_key = 0xa100a100a1ull;
  s.num_tpcs = 54;
  s.sms_per_tpc = 2;
  s.peak_tflops = 19.5;
  s.l2_bytes = 40ull << 20;
  s.vram_gbps = 1555.0;
  s.cache_noise_rate = 0.05;
  return s;
}

GpuSpec test_gpu() {
  GpuSpec s;
  s.name = "TestGPU";
  s.architecture = "Ampere";
  s.vram_bytes = 512ull << 20;
  s.vram_bus_width_bits = 128;
  s.num_channels = 4;
  s.channel_group_size = 2;
  s.linear_hash = false;
  s.hash_key = 0x7e57;
  s.num_tpcs = 4;
  s.sms_per_tpc = 2;
  s.peak_tflops = 2.0;
  s.l2_bytes = 256ull << 10;  // small slices keep unit-test probing fast
  s.vram_gbps = 100.0;
  s.cache_noise_rate = 0.0;
  return s;
}

}  // namespace sgdrc::gpusim

/**
 * @file
 * CRC-32 (the zlib / IEEE 802.3 polynomial) over raw bytes.
 *
 * The results journal stamps every row with it, so its value is part
 * of the on-disk format (DESIGN.md §12); the parallel runner also
 * seeds its retry jitter from it.
 */

#ifndef OCOR_COMMON_CRC32_HH
#define OCOR_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace ocor
{

/** Incremental CRC-32 (reflected 0xEDB88320) over raw bytes. */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t len);

} // namespace ocor

#endif // OCOR_COMMON_CRC32_HH

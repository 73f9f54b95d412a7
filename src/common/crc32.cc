#include "common/crc32.hh"

namespace ocor
{

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

} // namespace ocor

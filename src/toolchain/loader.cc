#include "toolchain/loader.hh"

#include "base/bitutils.hh"
#include "base/random.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::toolchain
{

ProcessImage
Loader::load(LinkedProgram program, const LoaderConfig &config,
             const std::string &entry)
{
    return load(std::make_shared<const LinkedProgram>(std::move(program)),
                config, entry);
}

ProcessImage
Loader::load(std::shared_ptr<const LinkedProgram> program,
             const LoaderConfig &config, const std::string &entry)
{
    mbias_assert(program, "cannot load a null program");
    obs::ScopedSpan span("toolchain.load", "toolchain");
    mbias_assert(isPowerOf2(config.spAlign), "spAlign must be power of 2");
    mbias_assert(config.stackTop > config.envBytes + config.argvReserve,
                 "environment does not fit below stackTop");

    ProcessImage image;
    image.entryIdx = program->entryOf(entry);
    image.loaderConfig = config;
    image.stackTop = config.stackTop;
    if (config.aslrSeed) {
        Rng rng(config.aslrSeed ^ 0xa51a51a5ULL);
        image.stackTop -= rng.nextBounded(4096) * 4;
    }
    image.gp = program->dataBase;
    image.heapBase =
        alignUp(program->dataEnd + config.heapGap, 4096);

    // execve(): environment strings at the very top, then the argv and
    // auxiliary vectors, then the initial stack pointer, aligned only
    // as much as the ABI guarantees.
    const Addr below_env = image.stackTop - config.envBytes;
    const Addr below_argv = below_env - config.argvReserve;
    image.initialSp = alignDown(below_argv, config.spAlign);

    image.program = std::move(program);
    return image;
}

} // namespace mbias::toolchain

// Fixture: the other standard engines and engine templates.  Their streams
// are pinned too, but rng::Engine is the one engine of src/, so a second
// engine is a second stream to keep identical across platforms.
#include <random>
std::default_random_engine a;
std::mersenne_twister_engine<unsigned, 32, 624, 397, 31, 0x9908b0df, 11, 0xffffffff, 7,
                             0x9d2c5680, 15, 0xefc60000, 18, 1812433253>
    b;
std::minstd_rand c;
std::minstd_rand0 d;
std::ranlux24 e;
std::ranlux48_base f;
std::knuth_b g;
std::linear_congruential_engine<unsigned, 16807, 0, 2147483647> h;
std::subtract_with_carry_engine<unsigned, 24, 10, 24> i;
std::discard_block_engine<std::ranlux24_base, 223, 23> j;
std::independent_bits_engine<std::minstd_rand, 32, unsigned> k;
std::shuffle_order_engine<std::minstd_rand0, 256> l;

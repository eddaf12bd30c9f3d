// Fixture: the engine header itself may not fall back to the standard engine.
#pragma once
#include <random>
namespace lumi::rng { using Engine = std::mt19937; }

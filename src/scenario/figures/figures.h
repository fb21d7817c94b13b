// Registration hooks for the 13 figure-reproduction scenarios.
//
// Each figNN_*.cc translation unit owns one figure's experiment code
// (output byte-identical to the historical per-figure binaries on fixed
// seeds) and exposes one registration hook (figure_common.h
// register_figure).
// register_figure_scenarios() is the explicit aggregate; linking figures
// into the static library pulls these objects in only when it is called.
#ifndef TOPODESIGN_SCENARIO_FIGURES_FIGURES_H
#define TOPODESIGN_SCENARIO_FIGURES_FIGURES_H

namespace topo::scenario {

void register_fig01();
void register_fig02();
void register_fig03();
void register_fig04();
void register_fig05();
void register_fig06();
void register_fig07();
void register_fig08();
void register_fig09();
void register_fig10();
void register_fig11();
void register_fig12();
void register_fig13();

/// Registers all 13 figure scenarios. Idempotent.
void register_figure_scenarios();

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_FIGURES_FIGURES_H

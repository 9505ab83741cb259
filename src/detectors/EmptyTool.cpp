#include "detectors/EmptyTool.h"

#include "framework/FastDispatch.h"

const char *ft::EmptyTool::name() const { return "Empty"; }

FT_REGISTER_FAST_DISPATCH(::ft::EmptyTool);

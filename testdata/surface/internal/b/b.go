// Package b uses package a.
package b

import "fixture/internal/a"

// Helper hands out an a.Named.
func Helper() a.Named { return a.Named{} }

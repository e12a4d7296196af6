package gendoc

// Code generated by nothing; DO NOT EDIT.
// The marker comes after the package clause, so this file is hand-written.

func StillUndocumented() {} // want doclint
